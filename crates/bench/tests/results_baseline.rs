//! The results gate: the fast figure binaries must reproduce the files
//! checked in under `results/` byte for byte (debug and release builds
//! print the same bytes).
//!
//! On a mismatch the test writes the fresh output next to the other test
//! scratch files (`target/tmp/<file>`) and fails naming it. Diff the two; if
//! the change is intended, copy the fresh file over the checked-in one and
//! update the matching numbers in EXPERIMENTS.md in the same change.

use std::path::Path;
use std::process::Command;

fn check(bin: &str, file: &str) {
    let out = Command::new(bin).output().expect("run the figure binary");
    assert!(out.status.success(), "{bin} failed: {:?}", out.status);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    let expected = std::fs::read(&path).unwrap_or_default();
    if out.stdout != expected {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
        std::fs::write(&fresh, &out.stdout).expect("write the fresh output");
        panic!(
            "{bin} diverged from results/{file}; the fresh output is in {}",
            fresh.display()
        );
    }
}

#[test]
fn fig02_reproduces_results() {
    check(env!("CARGO_BIN_EXE_fig02_example"), "fig02.txt");
}

#[test]
fn fig10_fig11_reproduce_results() {
    check(env!("CARGO_BIN_EXE_fig10_fig11_testbed"), "fig10_11.txt");
}

#[test]
fn determinism_reproduces_results() {
    check(env!("CARGO_BIN_EXE_determinism"), "determinism.txt");
}
