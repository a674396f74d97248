//! `redistexec` as a user runs it: the real binary, its exit status and
//! its output. A β outside the planner's tick range, an unknown `--algo`,
//! an unknown flag, a flag without its value, a malformed value or a
//! repeated flag is refused with status 2 and one line on stderr before
//! anything is planned; every `kpbs::Algo`
//! name executes and delivers; `--topo` runs take the same observability
//! and transport flags as flag-built platforms; `--help` prints the usage.

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

/// The matrix `redistd`'s walk (`crates/redistd/tests/admission.rs`) and
/// `redistplan` (`tests/cli.rs`) pin: one cell just inside the planner's
/// tick budget at 0.004 Mbit/s and β = 50 ms, and one megabyte more just
/// past it.
const INSIDE_MB: u64 = 1_152_921_504_606;

#[test]
fn the_tick_budget_line_is_the_walks() {
    let run = |mb: u64| {
        let mb = mb.to_string();
        redistexec(&[
            "--n",
            "1",
            "--t1",
            "0.004",
            "--t2",
            "0.004",
            "--backbone",
            "0.004",
            "--beta",
            "0.05",
            "--lo-mb",
            &mb,
            "--hi-mb",
            &mb,
            "--timeout",
            "inf",
        ])
    };
    let inside = run(INSIDE_MB);
    assert!(inside.status.success(), "{inside:?}");
    let stderr = assert_refused(&run(INSIDE_MB + 1), "one megabyte past the budget");
    assert!(
        stderr.contains("matrix exceeds the planner's tick budget"),
        "{stderr}"
    );
}

#[test]
fn bad_flags_are_refused() {
    let stderr = assert_refused(&redistexec(&["--tranport", "sim"]), "misspelt flag");
    assert!(stderr.contains("--tranport"), "{stderr}");
    let stderr = assert_refused(&redistexec(&["--n", "4", "--seed"]), "trailing --seed");
    assert!(stderr.contains("--seed needs a value"), "{stderr}");
    let stderr = assert_refused(&redistexec(&["--bogus", "1"]), "--bogus 1");
    assert!(stderr.contains("--bogus"), "{stderr}");
    let stderr = assert_refused(&redistexec(&["--seed", "x"]), "--seed x");
    assert!(stderr.contains("bad value \"x\" for --seed"), "{stderr}");
    let repeated = redistexec(&["--seed", "1", "--seed", "2"]);
    let stderr = assert_refused(&repeated, "repeated --seed");
    assert!(stderr.contains("--seed given more than once"), "{stderr}");
    let stderr = assert_refused(&redistexec(&["--transport", "tcp"]), "--transport tcp");
    assert!(stderr.contains("unknown --transport tcp"), "{stderr}");
    // A topology file and platform flags would describe two networks.
    let both = redistexec(&["--topo", "unread.topo", "--n", "4"]);
    let stderr = assert_refused(&both, "--topo with --n");
    assert!(stderr.contains("--topo replaces"), "{stderr}");
}

#[test]
fn topo_runs_honour_trace_metrics_rid_and_transport() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let topo = dir.join("redistexec-observed.topo");
    std::fs::write(&topo, "node 100 100 0 2\nnode 80 80 1 3\nlink 150 0 1\n")
        .expect("write topology");
    let trace = dir.join("redistexec-topo-trace.json");
    let metrics = dir.join("redistexec-topo.prom");
    let out = redistexec(&[
        "--topo",
        topo.to_str().unwrap(),
        "--faults",
        "5",
        "--transport",
        "loopback",
        "--rid",
        "99",
        "--trace",
        trace.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout.contains("delivery invariant: OK"), "{stdout}");
    assert!(stdout.contains("transport=loopback"), "{stdout}");
    let trace = std::fs::read_to_string(&trace).expect("trace written");
    assert!(trace.contains("redistexec.step"), "{trace}");
    assert!(trace.contains("\"rid\":99"), "spans carry --rid");
    let metrics = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(metrics.contains("redistexec_steps_total"), "{metrics}");
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

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = redistexec(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stderr.is_empty(), "{out:?}");
    assert!(stdout.starts_with("redistexec — "), "{stdout}");
    assert!(stdout.contains("usage: redistexec"), "{stdout}");
    assert!(stdout.contains(&Algo::NAMES.join("|")), "{stdout}");
}
