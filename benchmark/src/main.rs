//! `benchmark` — the end-to-end benchmark of the redistribution stack.
//!
//! ```sh
//! # one workload, in this process: the result is the last line, as JSON
//! benchmark --workload NAME [--seed 1] [--seconds 15 | --ops N] [--trace 0|1]
//!           [--setup-reps 7]
//! # the whole set, each workload in its own child process
//! benchmark [--repeat N] [--vary-seed] [--fixed-ops] [--traced] [--smoke]
//!           [--seed 1] [--seconds 15]
//! benchmark --print-benchmark-json
//! ```
//!
//! Exits non-zero on any incorrect result.

use benchmark::run::{RunOpts, Stop, SETUP_REPS};
use benchmark::spec::{self, Metric, Workload};
use benchmark::stats::{median, quartiles, relative_spread};
use benchmark::{benchmark_json, metric_table, result_line, run_workload};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;
use telemetry::json;

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload NAME [--seed N] [--seconds S | --ops N] [--trace 0|1]\n\
         \x20                [--setup-reps N]\n\
         \x20      benchmark [--repeat N] [--vary-seed] [--fixed-ops] [--traced] [--smoke]\n\
         \x20                [--seed N] [--seconds S]\n\
         \x20      benchmark --print-benchmark-json\n\
         workloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

/// Command-line arguments: `--name value` pairs and bare `--flag`s.
struct Args(Vec<String>);

impl Args {
    const VALUED: [&'static str; 7] = [
        "workload",
        "seed",
        "seconds",
        "ops",
        "trace",
        "setup-reps",
        "repeat",
    ];
    const FLAGS: [&'static str; 6] = [
        "vary-seed",
        "fixed-ops",
        "traced",
        "smoke",
        "print-benchmark-json",
        "help",
    ];
    /// Options of one workload's run; the set chooses them itself.
    const SINGLE_ONLY: [&'static str; 3] = ["ops", "trace", "setup-reps"];
    /// Options of the set.
    const SET_ONLY: [&'static str; 5] = ["repeat", "vary-seed", "fixed-ops", "traced", "smoke"];

    fn parse() -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let Some(name) = args[i].strip_prefix("--") else {
                eprintln!("benchmark: unexpected argument {:?}", args[i]);
                usage();
            };
            if Self::VALUED.contains(&name) {
                if i + 1 >= args.len() {
                    eprintln!("benchmark: --{name} needs a value");
                    usage();
                }
                i += 2;
            } else if Self::FLAGS.contains(&name) {
                i += 1;
            } else {
                eprintln!("benchmark: unknown option --{name}");
                usage();
            }
        }
        Args(args)
    }

    /// Refuses options that the chosen mode would silently ignore.
    fn reject(&self, names: &[&str], why: &str) {
        if let Some(name) = names.iter().find(|n| self.flag(n)) {
            eprintln!("benchmark: --{name} {why}");
            usage();
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a.strip_prefix("--") == Some(name))
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let at = self
            .0
            .iter()
            .position(|a| a.strip_prefix("--") == Some(name))?;
        match self.0[at + 1].parse() {
            Ok(v) => Some(v),
            Err(_) => {
                eprintln!("benchmark: bad value for --{name}");
                usage();
            }
        }
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    if args.flag("help") {
        usage();
    }
    if args.flag("print-benchmark-json") {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let seed: u64 = args.value("seed").unwrap_or(1);
    let seconds: f64 = args.value("seconds").unwrap_or(spec::RUN_SECONDS as f64);
    match args.value::<String>("workload") {
        Some(name) => {
            args.reject(&Args::SET_ONLY, "applies to the set; drop --workload");
            let stop = match args.value("ops") {
                Some(ops) => Stop::Ops(ops),
                None => Stop::Seconds(seconds),
            };
            let opts = RunOpts {
                seed,
                stop,
                trace: args.value::<u8>("trace").unwrap_or(0) != 0,
                setup_reps: args.value("setup-reps").unwrap_or(SETUP_REPS),
            };
            single(&name, opts)
        }
        None => {
            args.reject(&Args::SINGLE_ONLY, "needs --workload");
            set(&args, seed, seconds)
        }
    }
}

/// One workload in this process; the JSON result is the last line.
fn single(name: &str, opts: RunOpts) -> ExitCode {
    println!(
        "{name}: seed={} {:?} trace={} parallelism={}",
        opts.seed,
        opts.stop,
        opts.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let Some(outcome) = run_workload(name, opts) else {
        eprintln!("benchmark: unknown workload {name:?}");
        usage();
    };
    for m in metric_table(opts.trace) {
        // A per-layer metric the workload does not exercise reads 0 in the
        // result line; the table leaves it out.
        let Some(value) = outcome.get(m.name) else {
            continue;
        };
        let bound = m.bound.map_or(String::new(), |b| format!(" bound={b}"));
        println!(
            "  {:<40} {value:>16.4} {:<6} better={}{bound}",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    println!(
        "  attempted={} failed={} failed_fraction={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", result_line(&outcome, opts.trace));
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchmark: {name}: {} of {} ops failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    /// Everything the child printed before its result line.
    report: String,
}

/// Runs one workload in a child process of this executable.
fn child(
    workload: &Workload,
    seed: u64,
    stop: Stop,
    trace: bool,
    setup_reps: usize,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name, "--seed", &seed.to_string()]);
    match stop {
        Stop::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
        Stop::Ops(n) => cmd.args(["--ops", &n.to_string()]),
    };
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    cmd.args(["--setup-reps", &setup_reps.to_string()]);
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    let doc = json::parse(line).map_err(|e| {
        format!(
            "{}: no result line ({e}); exit {:?}; stderr: {}",
            workload.name,
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_obj())
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&json::Value::Bool(true)) && output.status.success(),
        metrics,
        report: report.to_string(),
    })
}

/// The whole set: every workload in its own child process, `--repeat`
/// times, alternating the workload order between repetitions.
fn set(args: &Args, seed: u64, seconds: f64) -> ExitCode {
    let smoke = args.flag("smoke");
    let traced = args.flag("traced") || smoke;
    let repeat: u64 = args.value("repeat").unwrap_or(1).max(1);
    let stop_for = |w: &Workload| {
        if smoke {
            Stop::Ops((w.nominal_ops / 20).max(1))
        } else if args.flag("fixed-ops") {
            Stop::Ops(w.nominal_ops)
        } else {
            Stop::Seconds(seconds)
        }
    };

    let setup_reps = if smoke { 1 } else { SETUP_REPS };
    let started = Instant::now();
    let mut values: BTreeMap<(usize, &'static str), Vec<f64>> = BTreeMap::new();
    let mut incorrect = 0u64;
    for rep in 0..repeat {
        let mut order: Vec<usize> = (0..spec::WORKLOADS.len()).collect();
        if rep % 2 == 1 {
            order.reverse();
        }
        let run_seed = if args.flag("vary-seed") {
            seed + rep
        } else {
            seed
        };
        for w in order {
            let workload = &spec::WORKLOADS[w];
            let mut passes = vec![false];
            if traced {
                passes.push(true);
            }
            for trace in passes {
                let stop = stop_for(workload);
                eprintln!(
                    "benchmark: [{}/{repeat}] {} seed={run_seed} {stop:?} trace={}",
                    rep + 1,
                    workload.name,
                    trace as u8
                );
                match child(workload, run_seed, stop, trace, setup_reps) {
                    Ok(result) => {
                        if !result.correct {
                            eprintln!("benchmark: {} reported an incorrect run", workload.name);
                            incorrect += 1;
                        }
                        if trace && rep == 0 {
                            println!("{}", result.report);
                        }
                        for m in metric_table(trace) {
                            let v = result.metrics.get(m.name).copied().unwrap_or(0.0);
                            values.entry((w, m.name)).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("benchmark: {e}");
                        incorrect += 1;
                    }
                }
            }
        }
    }

    let mut out_of_bound = 0;
    for (w, workload) in spec::WORKLOADS.iter().enumerate() {
        println!("\n{} — {}", workload.name, workload.why);
        let mut tables = vec![&spec::END_TO_END[..]];
        if traced {
            tables.push(&spec::PER_LAYER[..]);
        }
        for m in tables.into_iter().flatten() {
            let Some(v) = values.get(&(w, m.name)) else {
                continue;
            };
            // Per-layer metrics a workload does not exercise read 0.
            if m.bound.is_none() && v.iter().all(|&x| x == 0.0) {
                continue;
            }
            // One seed, one value: `cost_over_lb` is summed over the first
            // cycle of the op list, so repetitions must agree exactly.
            let exact = m.name == "cost_over_lb" && !args.flag("vary-seed");
            println!("{}", row(m, v, smoke, exact, &mut out_of_bound));
        }
    }
    println!(
        "\n{} workloads x {repeat} in {:.0}s; {incorrect} incorrect runs; {out_of_bound} metrics \
         spread beyond their bound or not exact",
        spec::WORKLOADS.len(),
        started.elapsed().as_secs_f64()
    );
    if incorrect == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One table row: name, median, unit, direction, bound — and, with at
/// least two runs, quartiles, relative spread and the verdict against the
/// bound (a spread wider than the bound cannot resolve a regression of
/// that size); an `exact` metric must read the same on every run. No bounds
/// are applied to a smoke run.
fn row(m: &Metric, v: &[f64], smoke: bool, exact: bool, out_of_bound: &mut u32) -> String {
    let mut line = format!(
        "  {:<40} {:>16.4} {:<6} {:<6}",
        m.name,
        median(v),
        m.unit,
        m.better.label()
    );
    if let Some(b) = m.bound {
        line += &format!(" bound={b:<5}");
    }
    if v.len() >= 2 {
        let [q1, _, q3] = quartiles(v);
        let spread = relative_spread(v);
        line += &format!(" q1={q1:.4} q3={q3:.4} spread={:.2}%", spread * 100.0);
        if let (Some(b), false) = (m.bound, smoke) {
            if exact && v.iter().any(|x| *x != v[0]) {
                line += " FAIL (not exact)";
                *out_of_bound += 1;
            } else if spread <= b {
                line += " pass";
            } else {
                line += " FAIL";
                *out_of_bound += 1;
            }
        }
    }
    line
}
