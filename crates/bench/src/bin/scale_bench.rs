//! Scaling study: hierarchical vs flat planning at n = 256 / 1024 / 4096.
//!
//! Generates sparse clustered instances (`kpbs::instances::sparse_clustered`
//! — block-diagonal-plus-noise, the workload hierarchy is built for) at each
//! size, plans them with `kpbs::hier` (auto block count, `⌈√n⌉`) and with
//! flat OGGP up to the largest size flat can finish in reasonable time, and
//! writes `BENCH_scale.json` with:
//!
//! * best-of-`reps` planning wall times for both planners (the absolute
//!   speedup over flat widens with n),
//! * the least-squares exponent of `log(time)` vs `log(n)` for flat OGGP
//!   only. Hier gets none: at n = 256 most of its pairs get several
//!   channels and run OGGP, from n = 1024 up most get one and run no
//!   planner, so one fit across the sizes would mix two regimes,
//! * the evaluation-ratio price of hierarchy (hier cost / lower bound, flat
//!   cost / lower bound, hier / flat where flat completes).
//!
//! The times are wall-clock and machine-dependent; no test gates them.
//!
//! Every hierarchical schedule is checked with `kpbs::validate` before its
//! row is written. The checked-in copy at the repository root is regenerated
//! with:
//!
//! ```sh
//! cargo run --release -p bench --bin scale_bench
//! ```
//!
//! Options: `--reps N` timing repetitions (default 3), `--jobs N` worker
//! threads for block planning (default 1; the schedule is identical for any
//! value), `--flat-max N` largest size flat OGGP is attempted at (default
//! 4096), `--out PATH` output file (default `BENCH_scale.json`), `--smoke`
//! fast CI mode: n = 256 only, one rep, output to
//! `target/BENCH_scale_smoke.json` so the checked-in file is never
//! clobbered.

use bench::{row, scale_instance, validate_jobs, SCALE_BETA, SCALE_K};
use kpbs::hier::{default_blocks, hier_report, HierConfig};
use kpbs::lower_bound::lower_bound;
use kpbs::oggp::oggp;
use std::time::Instant;
use telemetry::cli::Args;

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn time_ms<R, F: FnMut() -> R>(mut f: F, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical growth
/// exponent. `None` with fewer than two points.
fn fit_exponent(points: &[(f64, f64)]) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.max(1e-9).ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    Some((n * sxy - sx * sy) / (n * sxx - sx * sx))
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or("null".into(), |x| format!("{x:.4}"))
}

fn main() {
    let mut cli = Args::from_env("scale_bench");
    let smoke = cli.flag("smoke");
    let reps: usize = cli.value("reps").unwrap_or(if smoke { 1 } else { 3 });
    let jobs: usize = cli.value("jobs").unwrap_or(1);
    if let Err(e) = validate_jobs(jobs) {
        cli.refuse(e);
    }
    let flat_max: usize = cli
        .value("flat-max")
        .unwrap_or(if smoke { 256 } else { 4096 });
    let default_out = if smoke {
        "target/BENCH_scale_smoke.json"
    } else {
        "BENCH_scale.json"
    };
    let out_path: String = cli.value("out").unwrap_or(default_out.to_string());
    cli.finish();
    let sizes: &[usize] = if smoke { &[256] } else { &[256, 1024, 4096] };

    let mut flat_points: Vec<(f64, f64)> = Vec::new();
    let mut entries: Vec<String> = Vec::new();
    row(&[
        "n".into(),
        "edges".into(),
        "blocks".into(),
        "hier ms".into(),
        "flat ms".into(),
        "hier/lb".into(),
        "flat/lb".into(),
    ]);
    for &n in sizes {
        let inst = scale_instance(n);
        let blocks = default_blocks(n);
        let cfg = HierConfig::new(blocks).with_jobs(jobs);

        let report = hier_report(&inst, &cfg);
        report
            .schedule
            .validate(&inst)
            .unwrap_or_else(|e| panic!("n={n}: hier schedule invalid: {e}"));
        let hier_ms = time_ms(|| hier_report(&inst, &cfg), reps);

        let lb = lower_bound(&inst) as f64;
        let hier_cost = report.schedule.cost() as f64;

        let flat = (n <= flat_max).then(|| {
            let s = oggp(&inst);
            s.validate(&inst)
                .unwrap_or_else(|e| panic!("n={n}: flat schedule invalid: {e}"));
            let ms = time_ms(|| oggp(&inst), reps);
            flat_points.push((n as f64, ms));
            (ms, s.cost() as f64)
        });
        let (flat_ms, flat_cost) = match flat {
            Some((ms, c)) => (Some(ms), Some(c)),
            None => (None, None),
        };

        row(&[
            n.to_string(),
            inst.graph.edge_count().to_string(),
            report.blocks.to_string(),
            format!("{hier_ms:.1}"),
            flat_ms.map_or("-".into(), |v| format!("{v:.1}")),
            format!("{:.3}", hier_cost / lb),
            flat_cost.map_or("-".into(), |c| format!("{:.3}", c / lb)),
        ]);
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"n\": {}, \"edges\": {}, \"k\": {}, \"beta\": {},\n",
                "      \"blocks\": {}, \"active_pairs\": {}, \"macro_steps\": {},\n",
                "      \"diagonal_fraction\": {:.4},\n",
                "      \"hier_ms\": {:.4}, \"hier_steps\": {}, \"hier_cost\": {}, ",
                "\"hier_valid\": true,\n",
                "      \"lower_bound\": {},\n",
                "      \"hier_ratio\": {:.4},\n",
                "      \"flat_ms\": {}, \"flat_cost\": {},\n",
                "      \"flat_ratio\": {}, \"hier_vs_flat_cost\": {}\n",
                "    }}"
            ),
            n,
            inst.graph.edge_count(),
            SCALE_K,
            SCALE_BETA,
            report.blocks,
            report.active_pairs,
            report.macro_steps,
            report.diagonal_fraction,
            hier_ms,
            report.schedule.num_steps(),
            hier_cost,
            lb,
            hier_cost / lb,
            json_opt(flat_ms),
            json_opt(flat_cost),
            json_opt(flat_cost.map(|c| c / lb)),
            json_opt(flat_cost.map(|c| hier_cost / c)),
        ));
    }

    let flat_exp = fit_exponent(&flat_points);
    if let Some(e) = flat_exp {
        println!("flat fitted exponent: {e:.3}");
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"campaign\": \"scale_hier\",\n",
            "  \"family\": \"sparse_clustered(clusters=sqrt(n), per_node=8, ",
            "noise=0.1, max_w=10000, k={}, beta={})\",\n",
            "  \"timing\": \"best of {} runs, ms\",\n",
            "  \"jobs\": {},\n",
            "  \"rows\": [\n{}\n  ],\n",
            "  \"flat_fitted_exponent\": {}\n",
            "}}\n"
        ),
        SCALE_K,
        SCALE_BETA,
        reps,
        jobs,
        entries.join(",\n"),
        json_opt(flat_exp),
    );
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");
}
