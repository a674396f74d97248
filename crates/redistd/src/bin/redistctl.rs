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
//! or flag, a flag without its value, a malformed value or a repeated flag
//! exits 2 with one line on stderr, before anything is fetched.

use redistd::client;
use telemetry::cli::Args;
use telemetry::metrics;

const USAGE: &str = "usage: redistctl <metrics|flight> --addr HOST:PORT \
                     [--validate] [--field NAME] [--expect-requests N] (--help for more)";

/// The value of the first exposition sample named exactly `name` (labels
/// ignored), read through the one exposition parser,
/// [`metrics::find_sample`]. An unparsable exposition and a non-finite
/// value (`NaN`, `+Inf`), which a healthy server never emits, are `None`,
/// so scripts cannot carry them into comparisons.
fn finite_sample(body: &str, name: &str) -> Option<f64> {
    metrics::find_sample(body, name, &[]).filter(|v| v.is_finite())
}

fn main() {
    let mut cli = Args::from_env("redistctl");
    if cli.flag("help") {
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
    let command = cli.subcommand().unwrap_or_default();
    match command.as_str() {
        "metrics" | "flight" => {}
        "" => cli.refuse(USAGE),
        c => cli.refuse(format!("unknown command {c:?}; {USAGE}")),
    }
    let addr: Option<String> = cli.value("addr");
    // A flag the command does not take is never asked for, so `finish`
    // refuses it.
    let metrics = command == "metrics";
    let validate = metrics && cli.flag("validate");
    let field: Option<String> = if metrics { cli.value("field") } else { None };
    let expect_requests: Option<u64> = if metrics {
        None
    } else {
        cli.value("expect-requests")
    };
    if addr.is_none() {
        cli.refuse(format!("{command} needs --addr HOST:PORT"));
    }
    cli.finish();
    let addr = addr.unwrap_or_default();

    let body = match command.as_str() {
        "metrics" => client::fetch_metrics(&addr),
        _ => client::fetch_flight(&addr),
    };
    let body = match body {
        Ok(b) => b,
        Err(e) => {
            eprintln!("redistctl: cannot fetch {command} from {addr}: {e}");
            std::process::exit(1);
        }
    };

    if let Some(name) = &field {
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

    if validate {
        if let Err(e) = metrics::validate_exposition(&body) {
            eprintln!("redistctl: exposition invalid: {e}");
            std::process::exit(1);
        }
        eprintln!("redistctl: exposition well-formed");
    }

    if let Some(min) = expect_requests {
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
