//! The schedule-byte gate: every planner's schedules over the fixed-seed
//! campaign must reproduce the digests, costs and step counts checked in as
//! `BENCH_schedules.json`, inline and fanned out over two threads.
//!
//! On a mismatch the test writes the fresh JSON to
//! `target/tmp/BENCH_schedules.json` and fails naming it. Diff the two; if
//! the schedule change is intended, copy the fresh file over the checked-in
//! one in the same change.

#[test]
fn schedules_reproduce_checked_in_digests() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_schedules.json");
    let expected = std::fs::read_to_string(path).unwrap_or_default();
    for jobs in [1, 2] {
        let got = bench::schedules_campaign::run(jobs);
        if got != expected {
            let fresh =
                std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_schedules.json");
            std::fs::write(&fresh, &got).expect("write the fresh digests");
            panic!(
                "schedules (jobs = {jobs}) diverged from BENCH_schedules.json; \
                 the fresh digests are in {}",
                fresh.display()
            );
        }
    }
}
