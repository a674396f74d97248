//! Shared helpers for the figure-regeneration and study binaries: tiny CLI
//! parsing and table printing (kept dependency-free), plus the fixed-seed
//! work-counter campaign ([`counters_campaign`]) and schedule-digest
//! campaign ([`schedules_campaign`]).

#![forbid(unsafe_code)]

pub mod counters_campaign;
pub mod schedules_campaign;

/// Parses `--name value` from `args` (as `std::env::args` yields them):
/// `default` when the flag is absent, an error naming the flag when its
/// value is missing or does not parse.
pub fn parse_arg<T: std::str::FromStr>(
    args: impl IntoIterator<Item = String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    let flag = format!("--{name}");
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == flag {
            return match args.next() {
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {v:?}")),
                None => Err(format!("{flag} needs a value")),
            };
        }
    }
    Ok(default)
}

/// Parses `--name value` from `std::env::args`, falling back to `default`
/// when absent; a missing or malformed value exits 2 with one line.
pub fn arg_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    parse_arg(std::env::args(), name, default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
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

    fn args(list: &[&str]) -> Vec<String> {
        std::iter::once("bin")
            .chain(list.iter().copied())
            .map(String::from)
            .collect()
    }

    #[test]
    fn parse_arg_reads_the_flag_value() {
        assert_eq!(parse_arg(args(&["--reps", "3"]), "reps", 7u32), Ok(3));
        assert_eq!(parse_arg(args(&["--smoke"]), "reps", 7u32), Ok(7));
    }

    #[test]
    fn parse_arg_rejects_a_malformed_or_missing_value() {
        let err = parse_arg(args(&["--reps", "abc"]), "reps", 7u32).unwrap_err();
        assert_eq!(err, "bad value for --reps: \"abc\"");
        let err = parse_arg(args(&["--smoke", "--reps"]), "reps", 7u32).unwrap_err();
        assert_eq!(err, "--reps needs a value");
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
