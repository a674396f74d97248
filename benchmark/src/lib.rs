//! One end-to-end benchmark for the redistribution stack: named workloads,
//! end-to-end metrics, and a per-layer budget measured from outside. See
//! `README.md` beside this crate and `/BENCHMARK.json`.
//!
//! Nothing here touches product source: layers are timed through their
//! public functions, the server's public `stats()` / `metrics_text()`, and
//! `telemetry::counters` snapshots.

pub mod exec;
pub mod inputs;
pub mod layers;
pub mod plan;
pub mod run;
pub mod serve;
pub mod session;
pub mod spec;
pub mod stats;
pub mod trace;

use run::{Outcome, RunOpts};
use spec::Metric;

/// Runs one workload in this process. `None` for an unknown name.
pub fn run_workload(name: &str, opts: RunOpts) -> Option<Outcome> {
    spec::workload(name)?;
    Some(match name {
        spec::SESSION_DELTA => session::run(opts),
        spec::PLAN_FLAT => plan::run(plan::Planner::Flat, opts),
        spec::PLAN_HIER => plan::run(plan::Planner::Hier, opts),
        spec::EXEC_FAULTS => exec::run(opts),
        serving => serve::run(serving, opts),
    })
}

/// The metrics a run prints: every end-to-end one untraced, every
/// per-layer one traced.
pub fn metric_table(trace: bool) -> &'static [Metric] {
    if trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. A per-layer metric the workload
/// does not exercise reads 0.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = metric_table(trace)
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(outcome.get(m.name).unwrap_or(0.0)),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// `/BENCHMARK.json`, rendered from the tables in [`spec`].
pub fn benchmark_json() -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let workloads: Vec<String> = spec::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let metric = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.label())
        )
    };
    let end_to_end: Vec<String> = spec::END_TO_END.iter().map(metric).collect();
    let per_layer: Vec<String> = spec::PER_LAYER.iter().map(metric).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        spec::RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use run::Stop;

    #[test]
    fn checked_in_benchmark_json_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        assert_eq!(
            std::fs::read_to_string(path).expect("read BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `--print-benchmark-json`"
        );
    }

    /// The package sits outside the workspace, so it repeats the root's
    /// release profile; the layers must be built as the shipped binaries are.
    #[test]
    fn release_profile_is_the_root_one() {
        let profile = |manifest: &str| {
            let text = std::fs::read_to_string(manifest).expect("read manifest");
            text.lines()
                .skip_while(|l| *l != "[profile.release]")
                .take_while(|l| !l.trim().is_empty())
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        let dir = env!("CARGO_MANIFEST_DIR");
        let own = profile(&format!("{dir}/Cargo.toml"));
        assert!(own.len() > 1, "no release profile found");
        assert_eq!(own, profile(&format!("{dir}/../Cargo.toml")));
    }

    fn parse_line(line: &str) -> telemetry::json::Value {
        telemetry::json::parse(line).expect("result line parses")
    }

    /// A tiny fixed-count run prints every metric of its table and nothing
    /// else, and the exact metrics repeat exactly.
    #[test]
    fn tiny_runs_print_every_name_and_exact_metrics_repeat() {
        let opts = |trace| RunOpts {
            seed: 1,
            stop: Stop::Ops(8),
            trace,
            setup_reps: 2,
        };
        for workload in [spec::EXEC_FAULTS, spec::SERVE_HOT] {
            for trace in [false, true] {
                let a = run_workload(workload, opts(trace)).unwrap();
                let b = run_workload(workload, opts(trace)).unwrap();
                assert_eq!((a.failed, b.failed), (0, 0), "{workload}");
                let line = parse_line(&result_line(&a, trace));
                assert_eq!(
                    line.get("correct"),
                    Some(&telemetry::json::Value::Bool(true))
                );
                let printed = line.get("metrics").unwrap().as_obj().unwrap();
                let table = metric_table(trace);
                assert_eq!(printed.len(), table.len());
                for m in table {
                    let v = printed
                        .get(m.name)
                        .unwrap_or_else(|| panic!("{} missing", m.name));
                    assert_eq!(v.get("unit").unwrap().as_str(), Some(m.unit));
                }
                for (name, _) in &a.metrics {
                    assert!(
                        printed.contains_key(*name),
                        "{name} set but not in the table"
                    );
                }
                let exact = |m: &&Metric| {
                    m.name == "cost_over_lb"
                        || m.name == "redistexec.exec_overhead_ratio"
                        || m.name.starts_with("bipartite.")
                };
                for m in table.iter().filter(exact) {
                    assert_eq!(a.get(m.name), b.get(m.name), "{workload} {}", m.name);
                }
            }
        }
        assert!(run_workload("no-such-workload", opts(false)).is_none());
    }
}
