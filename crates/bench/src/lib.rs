//! Shared helpers for the figure-regeneration and study binaries: table
//! printing (options go through `telemetry::cli`), plus the fixed-seed
//! work-counter campaign ([`counters_campaign`]), schedule-digest
//! campaign ([`schedules_campaign`]) and schedule-quality ledger
//! ([`quality_campaign`]). Schedules run through
//! [`redistexec::execute_fault_free`].

#![forbid(unsafe_code)]

pub mod counters_campaign;
pub mod quality_campaign;
pub mod schedules_campaign;

use kpbs::hier::default_blocks;
use kpbs::{instances, Instance};
use rand::{rngs::SmallRng, SeedableRng};

/// Backbone width of `scale_bench`'s family, the same at every size: a
/// fixed physical backbone is the paper's setting, and it keeps the
/// planners' step widths comparable as n grows.
pub const SCALE_K: usize = 32;
/// Setup delay of `scale_bench`'s family, in ticks.
pub const SCALE_BETA: u64 = 1;

/// `scale_bench`'s instance at size `n`: sparse clustered traffic with
/// `⌈√n⌉` clusters, 8 messages per node and 10 % noise, from one seeded
/// generator per size so every row is reproducible on its own.
pub fn scale_instance(n: usize) -> Instance {
    let mut rng = SmallRng::seed_from_u64(0x5ca1e + n as u64);
    instances::sparse_clustered(
        &mut rng,
        n,
        default_blocks(n),
        8,
        0.1,
        10_000,
        SCALE_K,
        SCALE_BETA,
    )
}

/// Validates a worker-thread count: `0` threads cannot make progress, so it
/// is a configuration error, not a degenerate request.
pub fn validate_jobs(n: usize) -> Result<usize, String> {
    if n == 0 {
        Err("--jobs must be at least 1 (0 worker threads cannot plan anything)".into())
    } else {
        Ok(n)
    }
}

/// Prints a row of right-aligned cells of width 12 (first cell width 8).
pub fn row(cells: &[String]) {
    let mut line = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i == 0 {
            line.push_str(&format!("{c:>8}"));
        } else {
            line.push_str(&format!("{c:>12}"));
        }
    }
    println!("{line}");
}

/// Formats a float with 4 decimals.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::cli::Args;

    fn args(list: &[&str]) -> Args {
        Args::new("bench", list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arg_default_when_missing() {
        let mut cli = args(&[]);
        assert_eq!(cli.value("definitely-not-passed").unwrap_or(42usize), 42);
        assert_eq!(cli.check(), Ok(()));
    }

    #[test]
    fn parse_arg_reads_the_flag_value() {
        let mut cli = args(&["--reps", "3"]);
        assert_eq!(cli.value("reps").unwrap_or(7u32), 3);
        assert_eq!(cli.check(), Ok(()));
        let mut cli = args(&["--smoke"]);
        assert_eq!(cli.value("reps").unwrap_or(7u32), 7);
        assert!(cli.flag("smoke"));
        assert_eq!(cli.check(), Ok(()));
    }

    #[test]
    fn zero_jobs_is_rejected() {
        assert!(validate_jobs(0).is_err());
        assert_eq!(validate_jobs(1), Ok(1));
        assert_eq!(validate_jobs(8), Ok(8));
    }

    #[test]
    fn formatting() {
        assert_eq!(f4(1.23456), "1.2346");
        assert_eq!(f2(1.235), "1.24");
    }
}
