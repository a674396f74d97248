//! `redistexec` as a user runs it: the real binary, its exit status and
//! its output. A β outside the planner's tick range, or an unknown
//! `--algo`, is refused with status 2 and one line on stderr before
//! anything is planned; every `kpbs::Algo` name executes and delivers.

use kpbs::Algo;
use std::process::{Command, Output};

fn redistexec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_redistexec"))
        .args(args)
        .output()
        .expect("run redistexec")
}

fn assert_refused(out: &Output, what: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(out.stdout.is_empty(), "{what} executed a plan");
    assert_eq!(stderr.lines().count(), 1, "{what}: {stderr}");
    assert!(stderr.starts_with("redistexec: "), "{what}: {stderr}");
    stderr
}

#[test]
fn out_of_range_inputs_are_refused() {
    // Two sender and two receiver clusters on disjoint backbones.
    let topo = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("redistexec.topo");
    let text = "node 100 100 0 2\nnode 60 60 1 2\nnode 100 100 2 2\nnode 80 80 3 2\n\
                link 200 0 2\nlink 120 1 3\n";
    std::fs::write(&topo, text).expect("write topology");
    for beta in ["1e300", "-1", "nan", "inf", "1e17"] {
        assert_refused(&redistexec(&["--n", "3", "--beta", beta]), beta);
        let topo_args = ["--topo", topo.to_str().unwrap(), "--beta", beta];
        assert_refused(&redistexec(&topo_args), beta);
    }
    let stderr = assert_refused(&redistexec(&["--algo", "nope"]), "--algo nope");
    assert!(stderr.contains(&Algo::NAMES.join("|")), "{stderr}");
}

#[test]
fn every_algo_executes_and_delivers() {
    for name in Algo::NAMES {
        let out = redistexec(&["--n", "4", "--algo", name, "--faults", "3"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{name}: {out:?}");
        assert!(stdout.contains("delivery invariant: OK"), "{stdout}");
    }
}
