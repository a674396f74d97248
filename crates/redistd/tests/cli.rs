//! The crate's binaries as a user runs them: the real executables and their
//! exit status. An unknown flag — including the campaign, session, core and
//! report flags they no longer have — a flag without its value, a
//! malformed value or a repeated flag is refused with status 2, one stderr
//! line and nothing on stdout, before anything is hosted, bound or
//! fetched; `--help` prints the usage and exits 0, and a small self-hosted
//! `redistload` run exits 0.

use std::io::Read;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin` with `args` under a deadline. A child still running when it
/// passes (say, a daemon that ignored a bad flag and started serving) is
/// killed, and the test fails.
fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let mut stdout = String::new();
            if let Some(mut out) = child.stdout.take() {
                let _ = out.read_to_string(&mut stdout);
            }
            panic!("{bin} {args:?} still running after 30 s; stdout: {stdout}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect output")
}

/// Asserts the refusal shape: status 2, empty stdout, one stderr line
/// naming the binary.
fn assert_refused(name: &str, args: &[&str], out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{name} {args:?} wrote to stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert_eq!(stderr.lines().count(), 1, "{name} {args:?}: {stderr}");
    assert!(stderr.starts_with(&format!("{name}: ")), "{stderr}");
}

fn redistload(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_redistload"), args)
}

#[test]
fn removed_flags_are_refused() {
    for args in [
        &["--campaign", "64,256"][..],
        &["--sessions", "4"],
        &["--core", "threads"],
        &["--out", "/dev/null"],
        &["--requests", "8", "--campaign"],
    ] {
        let out = redistload(args);
        assert_refused("redistload", args, &out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("redistload: unknown flag"), "{stderr}");
    }
}

#[test]
fn load_generator_refuses_bad_values_and_repeats() {
    for (args, want) in [
        (&["--requests"][..], "--requests needs a value"),
        (&["--requests", "--n", "4"], "--requests needs a value"),
        (&["--requests", "x"], "bad value \"x\" for --requests"),
        (&["--n", "4", "--n", "5"], "--n given more than once"),
    ] {
        let out = redistload(args);
        assert_refused("redistload", args, &out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{stderr}");
    }
}

/// The daemon refuses what it used to ignore or default: the retired
/// `--core`, a misspelt flag, a trailing `--workers` and a malformed
/// worker count. It binds an ephemeral port, so a daemon that did start
/// collides with nothing before the deadline kills it.
#[test]
fn daemon_refuses_bad_flags() {
    for bad in [
        &["--core", "threads"][..],
        &["--wrokers", "2"],
        &["--workers"],
        &["--workers", "x"],
        &["--workers", "2", "--workers", "3"],
    ] {
        let args: Vec<&str> = ["--addr", "127.0.0.1:0"]
            .iter()
            .chain(bad)
            .copied()
            .collect();
        let out = run(env!("CARGO_BIN_EXE_redistd"), &args);
        assert_refused("redistd", &args, &out);
    }
}

/// The admin CLI refuses the retired `stats` command and the same bad
/// flags, before it connects anywhere.
#[test]
fn admin_cli_refuses_bad_commands_and_flags() {
    let addr = ["--addr", "127.0.0.1:1"];
    let mut cases: Vec<Vec<&str>> = vec![["stats"].iter().chain(&addr).copied().collect()];
    for bad in [
        &["--core", "threads"][..],
        &["--wrokers", "2"],
        &["--workers"],
        &["--workers", "x"],
    ] {
        cases.push(
            ["metrics"]
                .iter()
                .chain(&addr)
                .chain(bad)
                .copied()
                .collect(),
        );
    }
    // A missing and a malformed value of a flag the command does take.
    cases.push(vec!["metrics", "--addr"]);
    cases.push(vec![
        "metrics",
        "--addr",
        "127.0.0.1:1",
        "--addr",
        "127.0.0.1:2",
    ]);
    // A flag of the other command.
    cases.push(vec!["flight", "--addr", "127.0.0.1:1", "--validate"]);
    cases.push(vec![
        "flight",
        "--addr",
        "127.0.0.1:1",
        "--expect-requests",
        "x",
    ]);
    for args in &cases {
        let out = run(env!("CARGO_BIN_EXE_redistctl"), args);
        assert_refused("redistctl", args, &out);
    }
}

#[test]
fn small_self_hosted_run_passes() {
    let out = redistload(&["--requests", "8", "--distinct", "2", "--n", "4"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("redistload: "), "{stdout}");
}

/// Every binary of the crate answers `--help` with its usage on stdout and
/// status 0, before it hosts, binds or fetches anything.
#[test]
fn help_prints_usage_and_exits_zero() {
    for (name, bin) in [
        ("redistd", env!("CARGO_BIN_EXE_redistd")),
        ("redistctl", env!("CARGO_BIN_EXE_redistctl")),
        ("redistload", env!("CARGO_BIN_EXE_redistload")),
    ] {
        let out = run(bin, &["--help"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{name}: {out:?}");
        assert!(out.stderr.is_empty(), "{name}: {out:?}");
        assert!(stdout.contains(&format!("usage: {name}")), "{stdout}");
    }
}
