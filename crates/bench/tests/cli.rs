//! The figure and study binaries as a user runs them: an unknown flag, and
//! for a binary that takes a value, a malformed, missing or repeated value,
//! is refused with status 2, nothing on stdout and one `<bin>: …` line on
//! stderr. Each run has a deadline and works in `CARGO_TARGET_TMPDIR`, so a
//! binary that ran anyway (say, `counters_baseline`, which writes
//! `BENCH_counters.json` into its working directory) touches no checked-in
//! file.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Every bench binary, with a numeric value flag it takes (`None` for one
/// that takes no options).
const BINS: [(&str, Option<&str>); 13] = [
    ("ablation", Some("trials")),
    ("counters_baseline", Some("jobs")),
    ("delta_bench", Some("reps")),
    ("determinism", Some("runs")),
    ("fig02_example", None),
    ("fig07_small_weights", Some("trials")),
    ("fig08_large_weights", Some("trials")),
    ("fig09_beta_sweep", Some("trials")),
    ("fig10_fig11_testbed", Some("seeds")),
    ("scale_bench", Some("reps")),
    ("steps_table", Some("trials")),
    ("utilization", Some("size")),
    ("worst_case", None),
];

/// Runs the bench binary `name` with `args` in the test's scratch
/// directory. Cargo builds every binary of the package next to this one. A
/// child still running after 60 s (one that ignored the bad flag and
/// started its campaign) is killed, and the test fails.
fn run(name: &str, args: &[&str]) -> Output {
    let exe = Path::new(env!("CARGO_BIN_EXE_ablation"))
        .with_file_name(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    let mut child = Command::new(&exe)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let mut stdout = String::new();
            if let Some(mut out) = child.stdout.take() {
                let _ = out.read_to_string(&mut stdout);
            }
            panic!("{name} {args:?} still running after 60 s; stdout: {stdout}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect output")
}

#[test]
fn every_bench_bin_refuses_bad_flags() {
    for (name, value_flag) in BINS {
        let mut cases: Vec<(Vec<String>, String)> =
            vec![(vec!["--no-such-flag".into()], "unknown flag".into())];
        if let Some(v) = value_flag {
            let flag = format!("--{v}");
            cases.push((vec![flag.clone(), "x".into()], "bad value \"x\"".into()));
            cases.push((vec![flag.clone()], format!("{flag} needs a value")));
            cases.push((
                vec![flag.clone(), "1".into(), flag.clone(), "1".into()],
                format!("{flag} given more than once"),
            ));
        }
        for (args, want) in &cases {
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let out = run(name, &args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert!(
                out.stdout.is_empty(),
                "{name} {args:?} wrote to stdout: {}",
                String::from_utf8_lossy(&out.stdout)
            );
            assert_eq!(stderr.lines().count(), 1, "{name} {args:?}: {stderr}");
            assert!(stderr.starts_with(&format!("{name}: ")), "{stderr}");
            assert!(stderr.contains(want.as_str()), "{name} {args:?}: {stderr}");
        }
    }
}
