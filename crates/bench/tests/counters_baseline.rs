//! The work-counter regression gate: the fixed-seed campaign must reproduce
//! the checked-in `BENCH_counters.json` byte for byte, inline and fanned out
//! over two threads. If an algorithmic change is intended, regenerate the
//! baseline with `cargo run --release -p bench --bin counters_baseline`.
//!
//! This must stay the only test in this file: the campaign enables the
//! global counters and reads global snapshots, so a concurrently running
//! test would leak its work into the baseline.

#[test]
fn campaign_reproduces_checked_in_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_counters.json");
    let expected = std::fs::read_to_string(path).expect("read BENCH_counters.json");
    for jobs in [1, 2] {
        let got = bench::counters_campaign::run(jobs);
        assert!(
            got == expected,
            "work counters (jobs = {jobs}) diverged from BENCH_counters.json\n\
             --- expected (checked in) ---\n{expected}\n--- got ---\n{got}"
        );
    }
}
