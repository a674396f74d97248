//! Deterministic work-counter baseline: the wall-clock-free perf gate.
//!
//! Runs [`bench::counters_campaign::run`] and writes or checks its JSON.
//! The campaign is a pure function of fixed seeds, so the output is
//! byte-identical across runs, machines and `--jobs` values; the tier-1
//! test `crates/bench/tests/counters_baseline.rs` byte-compares it against
//! the checked-in `BENCH_counters.json`, failing on any unexplained change
//! in algorithmic work.
//!
//! ```sh
//! cargo run --release -p bench --bin counters_baseline            # rewrite baseline
//! cargo run --release -p bench --bin counters_baseline -- --check # compare
//! ```
//!
//! Options: `--out PATH` baseline file (default `BENCH_counters.json`),
//! `--check` compare instead of write (exit 1 on mismatch), `--jobs N`
//! worker threads for the scheduler arm.

use bench::{counters_campaign, validate_jobs};
use telemetry::cli::Args;

fn main() {
    let mut cli = Args::from_env("counters_baseline");
    let out: String = cli.value("out").unwrap_or("BENCH_counters.json".into());
    let check = cli.flag("check");
    let jobs: usize = cli.value("jobs").unwrap_or(1);
    if let Err(e) = validate_jobs(jobs) {
        cli.refuse(e);
    }
    cli.finish();
    let json = counters_campaign::run(jobs);

    if check {
        let existing = std::fs::read_to_string(&out).unwrap_or_else(|e| {
            eprintln!("counters_baseline: cannot read baseline {out}: {e}");
            std::process::exit(1);
        });
        if existing == json {
            println!("work counters match {out}");
        } else {
            eprintln!(
                "counters_baseline: deterministic work counters diverged from {out}.\n\
                 If the change is an intended algorithmic change, regenerate with:\n\
                 \x20 cargo run --release -p bench --bin counters_baseline\n\
                 --- expected (checked in) ---\n{existing}\n--- got ---\n{json}"
            );
            std::process::exit(1);
        }
    } else {
        std::fs::write(&out, &json).expect("write baseline file");
        println!("wrote {out}");
    }
}
