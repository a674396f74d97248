//! The results gate: the fast figure binaries must reproduce the files
//! checked in under `results/` byte for byte (debug and release builds
//! print the same bytes). Figures 7–9 take 15–65 s at the trial counts of
//! `results/fig07.txt`–`fig09.txt`, so they are gated at reduced trial
//! counts (`results/fig0N_reduced.txt`, a couple of seconds each in a
//! debug build): the same code path, the same seeds, fewer trials.
//!
//! On a mismatch the test writes the fresh output next to the other test
//! scratch files (`target/tmp/<file>`) and fails naming it. Diff the two; if
//! the change is intended, copy the fresh file over the checked-in one and
//! update the matching numbers in EXPERIMENTS.md in the same change.

use std::path::Path;
use std::process::Command;

fn check(bin: &str, args: &[&str], file: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("run the figure binary");
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
    check(env!("CARGO_BIN_EXE_fig02_example"), &[], "fig02.txt");
}

#[test]
fn fig07_reduced_reproduces_results() {
    let args = ["--trials", "20", "--kmax", "10"];
    check(
        env!("CARGO_BIN_EXE_fig07_small_weights"),
        &args,
        "fig07_reduced.txt",
    );
}

#[test]
fn fig08_reduced_reproduces_results() {
    let args = ["--trials", "8", "--kmax", "10"];
    check(
        env!("CARGO_BIN_EXE_fig08_large_weights"),
        &args,
        "fig08_reduced.txt",
    );
}

#[test]
fn fig09_reduced_reproduces_results() {
    let args = ["--trials", "20"];
    check(
        env!("CARGO_BIN_EXE_fig09_beta_sweep"),
        &args,
        "fig09_reduced.txt",
    );
}

#[test]
fn fig10_fig11_reproduce_results() {
    check(
        env!("CARGO_BIN_EXE_fig10_fig11_testbed"),
        &[],
        "fig10_11.txt",
    );
}

#[test]
fn determinism_reproduces_results() {
    check(env!("CARGO_BIN_EXE_determinism"), &[], "determinism.txt");
}

#[test]
fn utilization_reproduces_results() {
    check(env!("CARGO_BIN_EXE_utilization"), &[], "utilization.txt");
}
