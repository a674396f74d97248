//! `redistplan` as a user runs it: the real binary, its exit status and
//! its output. A matrix or β outside the planner's tick range is refused
//! with status 2 and one line on stderr, never planned into a wrapped cost
//! or a panic, and so is an unknown flag, a flag without its value, a
//! malformed or repeated value and a flag the chosen path ignores. Flag
//! and `--topo` inputs take one path: every `--algo` name plans on both,
//! an equivalent two-cluster topology file prints the same bytes as the
//! flags, `--simulate`/`--compare`/`--trace` work on both, and `--jobs`
//! never changes the output.

use redistribute::Algo;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Writes `text` to a fresh file (a new name per call, so tests running in
/// parallel share none) and returns its path.
fn scratch_file(ext: &str, text: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let n = CALLS.fetch_add(1, Ordering::Relaxed);
    let path =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("redistplan-{n}.{ext}"));
    std::fs::write(&path, text).expect("write input file");
    path
}

/// Runs `redistplan` with `args`.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_redistplan"))
        .args(args)
        .output()
        .expect("run redistplan")
}

/// Runs `redistplan` on `matrix` (CSV text) over the platform, or over
/// the two-backbone topology below when `topo`, with `args` appended.
fn redistplan(matrix: &str, topo: bool, args: &[&str]) -> Output {
    let csv = scratch_file("csv", matrix);
    let mut all = vec!["--matrix", csv.to_str().unwrap()];
    let topo_file = topo.then(|| scratch_file("topo", TOPO));
    if let Some(path) = &topo_file {
        all.extend(["--topo", path.to_str().unwrap()]);
    }
    all.extend(args);
    run(&all)
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
    for speed in ["0", "nan"] {
        let stderr = assert_refused(&redistplan(MATRIX, false, &["--t1", speed]), speed);
        assert!(stderr.contains("bad platform"), "{stderr}");
    }
    let stderr = assert_refused(&redistplan(MATRIX, false, &["--algo", "nope"]), "nope");
    assert!(stderr.contains(&Algo::NAMES.join("|")), "{stderr}");
}

/// The matrix `redistd`'s walk (`crates/redistd/tests/admission.rs`) and
/// `redistexec` (`crates/redistexec/tests/cli.rs`) pin: one cell just
/// inside the planner's tick budget at 0.004 Mbit/s and β = 50 ms, and one
/// megabyte more just past it.
const INSIDE_MB: u64 = 1_152_921_504_606;

#[test]
fn the_tick_budget_line_is_the_walks() {
    let speed = [
        "--t1",
        "0.004",
        "--t2",
        "0.004",
        "--backbone",
        "0.004",
        "--beta",
        "0.05",
    ];
    let inside = redistplan(&format!("{INSIDE_MB}000000\n"), false, &speed);
    assert!(inside.status.success(), "{inside:?}");
    let past = redistplan(&format!("{}000000\n", INSIDE_MB + 1), false, &speed);
    let stderr = assert_refused(&past, "one megabyte past the budget");
    assert!(
        stderr.contains("matrix exceeds the planner's tick budget"),
        "{stderr}"
    );
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
    ] {
        let stderr = assert_refused(&redistplan(MATRIX, true, args), args[0]);
        assert!(
            stderr.contains(args[0]) && stderr.contains("--topo"),
            "{stderr}"
        );
    }
    // The two-backbone topology simulates and compares like the platform.
    let out = redistplan(MATRIX, true, &["--simulate", "--compare"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout.contains("topology: 4 senders, 4 receivers, 2 backbones"),
        "{stdout}"
    );
    assert!(
        stdout.contains("simulated on the topology's network: "),
        "{stdout}"
    );
    assert!(stdout.contains("all algorithms:"), "{stdout}");
    for a in ["Oggp", "Ggp", "List", "Greedy", "Sequential"] {
        assert!(stdout.contains(&format!("  {a}: ")), "{stdout}");
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

/// The platform flags and the two-cluster topology file they describe
/// print the same bytes, for every planner and every report section.
#[test]
fn platform_flags_and_their_topology_file_print_the_same_bytes() {
    let platform = ["--t1", "100", "--t2", "100", "--backbone", "300"];
    let topo = scratch_file("topo", "node 100 100 0 4\nnode 100 100 1 4\nlink 300 0 1\n");
    let topo = ["--topo", topo.to_str().unwrap()];
    for name in Algo::NAMES {
        let report = |input: &[&str]| {
            let mut args = vec!["--algo", name, "--gantt", "--simulate", "--compare"];
            args.extend(input);
            let out = redistplan(MATRIX, false, &args);
            assert!(out.status.success(), "{name} {input:?}: {out:?}");
            out.stdout
        };
        let (flags, file) = (report(&platform), report(&topo));
        assert!(!flags.is_empty());
        assert_eq!(
            String::from_utf8_lossy(&flags),
            String::from_utf8_lossy(&file),
            "{name}"
        );
    }
}

/// A batch prints the same bytes, counters included, on one worker and on
/// two, over flag and `--topo` input alike.
#[test]
fn jobs_do_not_change_the_output() {
    let matrices = [
        MATRIX,
        "1M,9M,0,0\n4M,0,0,0\n0,0,2M,2M\n0,0,0,8M\n",
        "0,3M,0,0\n6M,6M,0,0\n0,0,1M,5M\n0,0,7M,0\n",
    ];
    let csvs: Vec<PathBuf> = matrices.iter().map(|m| scratch_file("csv", m)).collect();
    let topo = scratch_file("topo", TOPO);
    for input in [
        &["--backbone", "300"][..],
        &["--topo", topo.to_str().unwrap()],
    ] {
        let report = |jobs: &str| {
            let mut args: Vec<&str> = Vec::new();
            for csv in &csvs {
                args.extend(["--matrix", csv.to_str().unwrap()]);
            }
            args.extend(input);
            args.extend(["--compare", "--counters", "--jobs", jobs]);
            let out = run(&args);
            assert!(out.status.success(), "{input:?} --jobs {jobs}: {out:?}");
            String::from_utf8(out.stdout).unwrap()
        };
        let one = report("1");
        assert!(one.contains("[3/3] "), "{one}");
        assert!(one.contains("work counters:"), "{one}");
        assert_eq!(one, report("2"), "{input:?}");
    }
}
