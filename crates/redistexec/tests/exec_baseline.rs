//! The fault-campaign regression gate: `redistexec --bench --seeds 40` must
//! reproduce the checked-in `BENCH_exec.json` byte for byte. The campaign
//! is deterministic (seeded fault plans, loopback transport), so any change
//! in steps, retries, replans, splices or virtual time shows up here. If a
//! runtime change is intended, regenerate the file with
//! `cargo run --release -p redistexec --bin redistexec -- --bench --seeds 40`.

use std::process::Command;

#[test]
fn fault_campaign_reproduces_checked_in_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
    let expected = std::fs::read_to_string(path).expect("read BENCH_exec.json");
    let out_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_exec.json");
    let out = Command::new(env!("CARGO_BIN_EXE_redistexec"))
        .args(["--bench", "--seeds", "40", "--out"])
        .arg(&out_path)
        .output()
        .expect("run redistexec --bench");
    assert!(out.status.success(), "campaign failed: {out:?}");
    let got = std::fs::read_to_string(&out_path).expect("read the fresh campaign");
    assert!(
        got == expected,
        "fault campaign diverged from BENCH_exec.json (fresh output in {})\n\
         --- expected (checked in) ---\n{expected}\n--- got ---\n{got}",
        out_path.display()
    );
}
