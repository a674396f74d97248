//! `redistplan` as a user runs it: the real binary, its exit status and
//! its output. A matrix or β outside the planner's tick range is refused
//! with status 2 and one line on stderr, never planned into a wrapped cost
//! or a panic, and so is an unknown flag, a flag without its value, a
//! malformed or repeated value and a flag the chosen path ignores; every
//! `--algo` name plans, on the `--topo` path too, and `--trace` writes its
//! file on both paths.

use redistribute::Algo;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `redistplan` on `matrix` (CSV text) over the platform, or over
/// the two-backbone topology below when `topo`, with `args` appended.
fn redistplan(matrix: &str, topo: bool, args: &[&str]) -> Output {
    // A fresh name per call, so tests running in parallel share no file.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let n = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let tag = format!("redistplan-{n}");
    let csv = dir.join(format!("{tag}.csv"));
    std::fs::write(&csv, matrix).expect("write matrix");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_redistplan"));
    cmd.arg("--matrix").arg(&csv);
    if topo {
        let path = dir.join(format!("{tag}.topo"));
        std::fs::write(&path, TOPO).expect("write topology");
        cmd.arg("--topo").arg(path);
    }
    cmd.args(args).output().expect("run redistplan")
}

/// Two sender and two receiver clusters on disjoint backbones, and a
/// matrix on their routable pairs.
const TOPO: &str = "node 100 100 0 2\nnode 60 60 1 2\nnode 100 100 2 2\nnode 80 80 3 2\n\
                    link 200 0 2\nlink 120 1 3\n";
const MATRIX: &str = "5M,3M,0,0\n2M,7M,0,0\n0,0,4M,1M\n0,0,6M,2M\n";

fn assert_refused(out: &Output, what: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(out.stdout.is_empty(), "{what} printed a plan");
    assert_eq!(stderr.lines().count(), 1, "{what}: {stderr}");
    assert!(stderr.starts_with("redistplan: "), "{what}: {stderr}");
    stderr
}

#[test]
fn out_of_range_inputs_are_refused() {
    for beta in ["1e300", "-1", "nan", "inf", "1e17"] {
        for topo in [false, true] {
            assert_refused(&redistplan(MATRIX, topo, &["--beta", beta]), beta);
        }
    }
    let slow = redistplan("18000000000000000000,1\n1,1\n", false, &["--t1", "1e-6"]);
    assert_refused(&slow, "a matrix too slow for the tick range");
    let stderr = assert_refused(&redistplan(MATRIX, false, &["--algo", "nope"]), "nope");
    assert!(stderr.contains(&Algo::NAMES.join("|")), "{stderr}");
}

#[test]
fn unknown_flags_and_missing_values_are_refused() {
    let stderr = assert_refused(&redistplan(MATRIX, false, &["--bakcbone", "300"]), "typo");
    assert!(stderr.contains("--bakcbone"), "{stderr}");
    let stderr = assert_refused(&redistplan(MATRIX, false, &["--beta"]), "bare --beta");
    assert!(stderr.contains("--beta needs a value"), "{stderr}");
}

#[test]
fn malformed_and_repeated_values_are_refused() {
    // Checked before any input is read: no demo-workload note first.
    let bare = Command::new(env!("CARGO_BIN_EXE_redistplan"))
        .args(["--t1", "abc"])
        .output()
        .expect("run redistplan");
    let stderr = assert_refused(&bare, "bare --t1 abc");
    assert!(stderr.contains("\"abc\" for --t1"), "{stderr}");
    let stderr = assert_refused(
        &redistplan(MATRIX, false, &["--jobs", "2", "--jobs", "3"]),
        "repeated --jobs",
    );
    assert!(stderr.contains("--jobs given more than once"), "{stderr}");
}

#[test]
fn flags_the_chosen_path_ignores_are_refused() {
    let stderr = assert_refused(
        &redistplan(MATRIX, false, &["--algo", "oggp", "--blocks", "4"]),
        "--blocks without hier",
    );
    assert!(stderr.contains("--blocks needs --algo hier"), "{stderr}");
    for args in [
        &["--t1", "100"][..],
        &["--t2", "100"],
        &["--backbone", "300"],
        &["--simulate"],
        &["--compare"],
    ] {
        let stderr = assert_refused(&redistplan(MATRIX, true, args), args[0]);
        assert!(
            stderr.contains(args[0]) && stderr.contains("--topo"),
            "{stderr}"
        );
    }
}

#[test]
fn topo_path_writes_its_trace() {
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("redistplan-topo.json");
    let _ = std::fs::remove_file(&trace);
    let out = redistplan(MATRIX, true, &["--trace", trace.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let json = std::fs::read_to_string(&trace).expect("trace written");
    assert!(json.contains("\"name\":\"kpbs.topo_plan\""), "{json}");
}

#[test]
fn every_algo_plans_on_both_paths() {
    for name in Algo::NAMES {
        let label = name[..1].to_uppercase() + &name[1..];
        for topo in [false, true] {
            let out = redistplan(MATRIX, topo, &["--algo", name]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{name} topo={topo}: {out:?}");
            assert!(stdout.contains(&format!("{label}: ")), "{stdout}");
        }
    }
    let help = Command::new(env!("CARGO_BIN_EXE_redistplan"))
        .arg("--help")
        .output();
    let help = String::from_utf8(help.expect("run redistplan").stdout).unwrap();
    assert!(help.contains(&Algo::NAMES.join("|")), "{help}");
}
