//! `redistload` as a user runs it: the real binary and its exit status. An
//! unknown flag — including the campaign, session, core and report flags
//! the binary no longer has — is refused with status 2 and one stderr line
//! before anything is hosted or planned; a small self-hosted run exits 0.

use std::process::{Command, Output};

fn redistload(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_redistload"))
        .args(args)
        .output()
        .expect("run redistload")
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
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran a load");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("redistload: unknown flag"), "{stderr}");
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
