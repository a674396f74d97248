//! `redistctl` — admin CLI for a running `redistd`.
//!
//! ```sh
//! redistctl <metrics|flight> --addr HOST:PORT [--validate] [--field NAME]
//!           [--expect-requests N]
//! ```
//!
//! Fetches one of the plaintext admin reports and prints it to stdout.
//! `--validate` (metrics) additionally checks Prometheus exposition
//! well-formedness; `--field NAME` (metrics) prints just the value of the
//! first sample named NAME; `--expect-requests N` (flight) asserts the
//! recorder has seen at least N requests. A failed check exits 1, which is
//! how `scripts/check.sh` turns a scrape into a CI gate. An unknown command
//! or flag, a flag without its value or a malformed value exits 2 with one
//! line on stderr, before anything is fetched.

use redistd::client;
use std::str::FromStr;
use telemetry::metrics;

const USAGE: &str = "usage: redistctl <metrics|flight> --addr HOST:PORT \
                     [--validate] [--field NAME] [--expect-requests N] (--help for more)";

/// The parsed command line.
struct Options {
    command: String,
    addr: String,
    validate: bool,
    field: Option<String>,
    expect_requests: Option<u64>,
}

/// Takes and parses the value that follows `flag`.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("bad value for {flag}: {v:?}"))
}

/// Parses the arguments after the program name: the command, then flags.
/// An unknown command or flag, a flag without its value, a malformed value
/// or a flag the command does not take is an error, never ignored.
fn parse_options(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut args = args.into_iter();
    let command = match args.next() {
        Some(c) if c == "metrics" || c == "flight" => c,
        Some(c) => return Err(format!("unknown command {c:?}; {USAGE}")),
        None => return Err(USAGE.into()),
    };
    let mut addr = None;
    let mut o = Options {
        command,
        addr: String::new(),
        validate: false,
        field: None,
        expect_requests: None,
    };
    while let Some(flag) = args.next() {
        let metrics = o.command == "metrics";
        match flag.as_str() {
            "--addr" => addr = Some(value(&mut args, &flag)?),
            "--validate" if metrics => o.validate = true,
            "--field" if metrics => o.field = Some(value(&mut args, &flag)?),
            "--expect-requests" if !metrics => o.expect_requests = Some(value(&mut args, &flag)?),
            _ => return Err(format!("unknown flag {flag:?} for {}", o.command)),
        }
    }
    o.addr = addr.ok_or_else(|| format!("{} needs --addr HOST:PORT", o.command))?;
    Ok(o)
}

/// The value of the first exposition sample named exactly `name` (labels
/// ignored), read through the one exposition parser,
/// [`metrics::find_sample`]. An unparsable exposition and a non-finite
/// value (`NaN`, `+Inf`), which a healthy server never emits, are `None`,
/// so scripts cannot carry them into comparisons.
fn finite_sample(body: &str, name: &str) -> Option<f64> {
    metrics::find_sample(body, name, &[]).filter(|v| v.is_finite())
}

fn main() {
    if std::env::args().any(|a| a == "--help") {
        println!(
            "{USAGE}\n\
             \n\
             metrics             fetch Prometheus text exposition (METRICS)\n\
             flight              fetch the flight-recorder dump (FLIGHT)\n\
             --validate          (metrics) check exposition well-formedness\n\
             --field NAME        (metrics) print only the first NAME sample's\n\
             \x20                   value; exit 1 if absent or non-finite\n\
             --expect-requests N (flight) require >= N recorded requests"
        );
        return;
    }
    let o = parse_options(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("redistctl: {e}");
        std::process::exit(2);
    });

    let body = match o.command.as_str() {
        "metrics" => client::fetch_metrics(&o.addr),
        _ => client::fetch_flight(&o.addr),
    };
    let body = match body {
        Ok(b) => b,
        Err(e) => {
            eprintln!("redistctl: cannot fetch {} from {}: {e}", o.command, o.addr);
            std::process::exit(1);
        }
    };

    if let Some(name) = &o.field {
        match finite_sample(&body, name) {
            Some(v) => {
                println!("{v}");
                return;
            }
            None => {
                eprintln!("redistctl: exposition has no finite sample named {name:?}");
                std::process::exit(1);
            }
        }
    }
    print!("{body}");

    if o.validate {
        if let Err(e) = metrics::validate_exposition(&body) {
            eprintln!("redistctl: exposition invalid: {e}");
            std::process::exit(1);
        }
        eprintln!("redistctl: exposition well-formed");
    }

    if let Some(min) = o.expect_requests {
        // The dump header carries the lifetime total:
        // `redistd flight records=K capacity=C total=T`.
        let total = body
            .lines()
            .next()
            .and_then(|h| h.rsplit_once("total=").map(|(_, t)| t.trim().to_string()))
            .and_then(|t| t.parse::<u64>().ok());
        match total {
            Some(t) if t >= min => {
                eprintln!("redistctl: flight recorder saw {t} requests (>= {min})");
            }
            Some(t) => {
                eprintln!("redistctl: flight recorder saw {t} requests, expected >= {min}");
                std::process::exit(1);
            }
            None => {
                eprintln!("redistctl: malformed flight header");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::finite_sample;

    const BODY: &str = "\
# HELP redistd_requests_total Requests by final outcome.\n\
# TYPE redistd_requests_total counter\n\
redistd_requests_total{outcome=\"planned\"} 3\n\
redistd_requests_total{outcome=\"cache_hit\"} 9\n\
redistd_uptime_seconds 12.5\n\
redistd_bad NaN\n\
redistd_worse +Inf\n";

    #[test]
    fn picks_first_matching_sample_labels_ignored() {
        assert_eq!(finite_sample(BODY, "redistd_requests_total"), Some(3.0));
        assert_eq!(finite_sample(BODY, "redistd_uptime_seconds"), Some(12.5));
    }

    #[test]
    fn comments_and_missing_names_yield_none() {
        assert_eq!(finite_sample(BODY, "redistd_missing"), None);
        // The HELP/TYPE lines mention the name but are not samples.
        assert_eq!(finite_sample("# TYPE x counter\n", "x"), None);
        // A name must match exactly, not by prefix.
        assert_eq!(finite_sample(BODY, "redistd_requests"), None);
    }

    #[test]
    fn non_finite_and_malformed_first_occurrences_are_rejected() {
        assert_eq!(finite_sample(BODY, "redistd_bad"), None);
        assert_eq!(finite_sample(BODY, "redistd_worse"), None);
        // A malformed sample makes the whole exposition unreadable, even
        // where a later duplicate would parse.
        let torn = "redistd_worse garbage\nredistd_worse 7\nredistd_ok 1\n";
        assert_eq!(finite_sample(torn, "redistd_worse"), None);
        assert_eq!(finite_sample(torn, "redistd_ok"), None);
    }
}
