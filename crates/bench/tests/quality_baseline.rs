//! The schedule-quality gate: cost, steps and cost / lower bound of flat
//! OGGP and hier on the fixed-seed ledger, planned inline and fanned out
//! over two threads, and the age rows of the replayed delta session must
//! reproduce the checked-in `BENCH_quality.json`.
//!
//! On a mismatch the test writes the fresh JSON to
//! `target/tmp/BENCH_quality.json` and fails naming it. Diff the two; if
//! the quality change is intended, copy the fresh file over the checked-in
//! one in the same change.

#[test]
fn quality_ledger_reproduces_checked_in_baseline() {
    use bench::quality_campaign::{case_rows, render, session_rows};
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_quality.json");
    let expected = std::fs::read_to_string(path).unwrap_or_default();
    // The session replay does not depend on `jobs`: run it once, beside
    // the planner cases.
    let (sessions, by_jobs) = std::thread::scope(|scope| {
        let sessions = scope.spawn(session_rows);
        let by_jobs = [1, 2].map(|jobs| (jobs, case_rows(jobs)));
        (sessions.join().expect("session replay"), by_jobs)
    });
    for (jobs, cases) in by_jobs {
        let got = render(&sessions, &cases);
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
