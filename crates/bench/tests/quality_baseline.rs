//! The schedule-quality gate: cost, steps and cost / lower bound of flat
//! OGGP and hier on the fixed-seed ledger must reproduce the checked-in
//! `BENCH_quality.json`, inline and fanned out over two threads.
//!
//! On a mismatch the test writes the fresh JSON to
//! `target/tmp/BENCH_quality.json` and fails naming it. Diff the two; if
//! the quality change is intended, copy the fresh file over the checked-in
//! one in the same change.

#[test]
fn quality_ledger_reproduces_checked_in_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_quality.json");
    let expected = std::fs::read_to_string(path).unwrap_or_default();
    for jobs in [1, 2] {
        let got = bench::quality_campaign::run(jobs);
        if got != expected {
            let fresh =
                std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_quality.json");
            std::fs::write(&fresh, &got).expect("write the fresh ledger");
            panic!(
                "quality ledger (jobs = {jobs}) diverged from BENCH_quality.json; \
                 the fresh ledger is in {}",
                fresh.display()
            );
        }
    }
}
