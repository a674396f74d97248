//! Replan-vs-cold speedup study: what a live [`kpbs::DeltaPlanner`]
//! session buys over stateless re-planning.
//!
//! For each matrix size (n = 64 / 256 / 1024, sparse fixed-seed instances)
//! and delta-batch size (1 / 4 / 16 edited cells), streams `reps` random
//! edit batches through a warm planner, timing each `replan` against a
//! cold OGGP plan of the same post-delta matrix (canonical row-major
//! construction — exactly what a stateless server would do). Every
//! replanned schedule is self-validating (the planner asserts feasibility
//! and exact delivery on each call), so a row in the output is also a
//! correctness witness.
//!
//! Writes `BENCH_delta.json` and exits non-zero when the headline gate —
//! single-cell replans at n = 256 at least 3× faster than cold planning —
//! does not hold. The gate stays wall-clock because the work counters
//! cannot see replan cost: a repair replan at n = 256 counts 0
//! `dfs_edge_visits` against millions for a cold plan. The checked-in copy
//! is regenerated with:
//!
//! ```sh
//! cargo run --release -p bench --bin delta_bench
//! ```
//!
//! Options: `--reps N` batches per row (default 5, large sizes clamp to
//! 3), `--out PATH` (default `BENCH_delta.json`), `--smoke` n = 256 only,
//! writing `target/BENCH_delta_smoke.json` so the checked-in file is
//! never clobbered.

use bench::row;
use bipartite::Graph;
use kpbs::{oggp, DeltaPlanner, Instance, MatrixDelta, RepairLevel};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::time::Instant;
use telemetry::cli::Args;

const K: usize = 32;
const BETA: u64 = 1;
const MAX_W: u64 = 10_000;

/// Sizes with a density that keeps cold planning tractable while the
/// instance stays recognisably sparse (10–40%).
const SIZES: &[(usize, f64)] = &[(64, 0.4), (256, 0.2), (1024, 0.05)];
const DELTA_SIZES: &[usize] = &[1, 4, 16];

/// A deduplicated sparse instance (the planner refuses parallel edges),
/// built row-major so it is canonical from the start.
fn instance_at(n: usize, density: f64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(0xde17a + n as u64);
    let mut g = Graph::new(n, n);
    for l in 0..n {
        for r in 0..n {
            if rng.gen_bool(density) {
                g.add_edge(l, r, rng.gen_range(1..=MAX_W));
            }
        }
    }
    if g.is_empty() {
        g.add_edge(0, 0, MAX_W);
    }
    Instance::new(g, K, BETA)
}

/// The canonical cold instance of the planner's current matrix.
fn cold_instance(planner: &DeltaPlanner) -> Instance {
    let target = planner.target_matrix();
    let live = planner.instance();
    let mut g = Graph::new(live.graph.left_count(), live.graph.right_count());
    for i in 0..live.graph.left_count() {
        for j in 0..live.graph.right_count() {
            let w = target.get(i, j);
            if w > 0 {
                g.add_edge(i, j, w);
            }
        }
    }
    Instance::new(g, live.k, live.beta)
}

struct Row {
    n: usize,
    edges: usize,
    delta_cells: usize,
    reps: usize,
    replan_us: f64,
    cold_us: f64,
    cost_ratio: f64,
    repairs: u64,
    repeels: u64,
    colds: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.cold_us / self.replan_us.max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            "    {{ \"n\": {}, \"edges\": {}, \"delta_cells\": {}, \"reps\": {}, \
             \"replan_us_mean\": {:.1}, \"cold_us_mean\": {:.1}, \"speedup\": {:.2}, \
             \"cost_vs_cold\": {:.4}, \
             \"levels\": {{ \"repair\": {}, \"repeel\": {}, \"cold\": {} }} }}",
            self.n,
            self.edges,
            self.delta_cells,
            self.reps,
            self.replan_us,
            self.cold_us,
            self.speedup(),
            self.cost_ratio,
            self.repairs,
            self.repeels,
            self.colds,
        )
    }
}

fn measure(n: usize, density: f64, delta_cells: usize, reps: usize) -> Row {
    let mut planner = DeltaPlanner::new(instance_at(n, density));
    let edges = planner.instance().graph.edge_count();
    let mut rng = SmallRng::seed_from_u64(0xba7c4 ^ ((n as u64) << 8) ^ delta_cells as u64);
    let mut row = Row {
        n,
        edges,
        delta_cells,
        reps,
        replan_us: 0.0,
        cold_us: 0.0,
        cost_ratio: 0.0,
        repairs: 0,
        repeels: 0,
        colds: 0,
    };
    for _ in 0..reps {
        // A coflow tick: mostly reshaped or new messages, some cancelled.
        let batch: Vec<MatrixDelta> = (0..delta_cells)
            .map(|_| MatrixDelta::Set {
                sender: rng.gen_range(0..n),
                receiver: rng.gen_range(0..n),
                ticks: if rng.gen_bool(0.25) {
                    0
                } else {
                    rng.gen_range(1..=MAX_W)
                },
            })
            .collect();
        let t = Instant::now();
        let outcome = std::hint::black_box(planner.replan(&batch));
        row.replan_us += t.elapsed().as_secs_f64() * 1e6;
        match outcome.level {
            RepairLevel::Repair => row.repairs += 1,
            RepairLevel::RePeel => row.repeels += 1,
            RepairLevel::Cold => row.colds += 1,
        }

        let cold_inst = cold_instance(&planner);
        let t = Instant::now();
        let cold = std::hint::black_box(oggp(&cold_inst));
        row.cold_us += t.elapsed().as_secs_f64() * 1e6;
        row.cost_ratio += outcome.cost as f64 / cold.cost().max(1) as f64;
    }
    row.replan_us /= reps as f64;
    row.cold_us /= reps as f64;
    row.cost_ratio /= reps as f64;
    row
}

fn main() {
    let mut cli = Args::from_env("delta_bench");
    let smoke = cli.flag("smoke");
    let reps_arg: usize = cli.value("reps").unwrap_or(5);
    let out: String = cli.value("out").unwrap_or_else(|| {
        if smoke {
            "target/BENCH_delta_smoke.json".into()
        } else {
            "BENCH_delta.json".into()
        }
    });
    cli.finish();

    let sizes: Vec<(usize, f64)> = SIZES
        .iter()
        .copied()
        .filter(|&(n, _)| !smoke || n == 256)
        .collect();

    row(&[
        "n".into(),
        "cells".into(),
        "replan_us".into(),
        "cold_us".into(),
        "speedup".into(),
        "cost/cold".into(),
    ]);
    let mut rows: Vec<Row> = Vec::new();
    for &(n, density) in &sizes {
        for &d in DELTA_SIZES {
            // Large instances pay seconds per cold plan; clamp the reps
            // there so the study stays a CI-friendly gate.
            let reps = if n >= 1024 { reps_arg.min(3) } else { reps_arg }.max(1);
            let r = measure(n, density, d, reps);
            row(&[
                format!("{n}"),
                format!("{d}"),
                format!("{:.0}", r.replan_us),
                format!("{:.0}", r.cold_us),
                format!("{:.1}x", r.speedup()),
                format!("{:.4}", r.cost_ratio),
            ]);
            rows.push(r);
        }
    }

    let gate = rows
        .iter()
        .find(|r| r.n == 256 && r.delta_cells == 1)
        .expect("the n=256 single-cell row is always measured");
    let gate_speedup = gate.speedup();

    let body: Vec<String> = rows.iter().map(Row::json).collect();
    let json = format!(
        "{{\n  \"bench\": \"delta_replan_v1\",\n  \
         \"family\": \"sparse uniform, k={K}, beta={BETA}, weights 1..={MAX_W}\",\n  \
         \"timing\": \"mean over reps, us\",\n  \"rows\": [\n{}\n  ],\n  \
         \"gate_n256_single_cell_speedup\": {gate_speedup:.2},\n  \
         \"gate_threshold\": 3.0\n}}\n",
        body.join(",\n"),
    );
    std::fs::write(&out, &json).expect("write BENCH_delta.json");
    println!("delta_bench: wrote {out}");

    if gate_speedup < 3.0 {
        eprintln!(
            "delta_bench: single-cell replan at n=256 only {gate_speedup:.2}x \
             faster than cold (gate: 3x)"
        );
        std::process::exit(1);
    }
}
