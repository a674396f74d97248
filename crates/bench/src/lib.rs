//! Shared helpers for the figure-regeneration binaries and criterion
//! benches: tiny CLI parsing and table printing (kept dependency-free),
//! plus the fixed-seed work-counter campaign ([`counters_campaign`]).

#![forbid(unsafe_code)]

pub mod counters_campaign;

/// Parses `--name value` style options from `std::env::args`, falling back
/// to `default` when absent or malformed.
pub fn arg_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == format!("--{name}") {
            if let Some(v) = args.next() {
                if let Ok(parsed) = v.parse() {
                    return parsed;
                }
            }
        }
    }
    default
}

/// True when `--name` is present as a flag.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == format!("--{name}"))
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

/// Parses `--jobs` (defaulting to `default`) and exits with a clear message
/// on `--jobs 0` instead of hanging or panicking deep in the thread pool.
pub fn jobs_or(default: usize) -> usize {
    validate_jobs(arg_or("jobs", default)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
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

    #[test]
    fn arg_default_when_missing() {
        assert_eq!(arg_or("definitely-not-passed", 42usize), 42);
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
