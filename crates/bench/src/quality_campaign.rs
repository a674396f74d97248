//! The fixed-seed schedule-quality ledger behind `BENCH_quality.json`.
//!
//! Plans a few instances at the sizes the end-to-end benchmark times —
//! two of the `plan-flat` family (`sparse_clustered`, n = 512, 22
//! clusters, k = 32, β = 1) and `BENCH_scale.json`'s n = 256 instance —
//! with flat OGGP and with `hier` at its default block count, and records
//! per schedule the instance's shape, its lower bound, the schedule's cost
//! and steps, and cost / lower bound to 6 decimals. Planning is a pure
//! function of the instance, so the JSON [`render`] returns is byte-identical
//! across runs, machines, build profiles and `jobs` values.
//!
//! The `sessions` rows replay one seeded delta session the way the
//! `session-delta` workload streams it, at n = 32: a ~40 %-dense matrix
//! (k = 4, β = 50 ticks) opened in a [`DeltaPlanner`] and fed 2-cell
//! `Set` batches, ~60 % clears. At fixed rounds they record the committed
//! schedule's cost, lower bound, cost / lower bound and steps, the live
//! graph's `edge_id_bound` (edge ids handed out, tombstones included) and
//! how many rounds so far took the cold rung — so the age of a session
//! is a deterministic count in every diff, not a wall-clock reading.
//!
//! `BENCH_schedules.json` pins schedule bytes on small instances; this
//! file makes the quality a planner pays at scale visible in every diff.
//! `tests/quality_baseline.rs` compares [`render`] with the checked-in file
//! and, on a mismatch, writes the fresh JSON under `target/` for review.

use bipartite::Graph;
use kpbs::batch::parallel_map;
use kpbs::hier::{hier, HierConfig};
use kpbs::{instances, lower_bound, oggp, DeltaPlanner, Instance, MatrixDelta, RepairLevel};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Side of the replayed session's matrix.
const SESSION_N: usize = 32;
/// Rounds after which a session row is recorded; the last ends the replay.
const SESSION_ROUNDS: [u64; 4] = [500, 1_000, 2_000, 5_000];

/// The ledger's instances, named.
fn instances() -> Vec<(String, Instance)> {
    let mut out: Vec<(String, Instance)> = [1u64, 2]
        .into_iter()
        .map(|seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let inst = instances::sparse_clustered(&mut rng, 512, 22, 8, 0.1, 10_000, 32, 1);
            (format!("plan_flat_seed{seed}"), inst)
        })
        .collect();
    out.push(("scale_n256".into(), crate::scale_instance(256)));
    out
}

/// Replays the seeded delta session and returns one JSON row per recorded
/// round (500, 1 000, 2 000 and 5 000). Independent of `jobs`, so callers
/// that render the ledger at several `jobs` values replay it once.
pub fn session_rows() -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut g = Graph::new(SESSION_N, SESSION_N);
    for i in 0..SESSION_N {
        for j in 0..SESSION_N {
            if rng.gen_range(0..10u32) < 4 {
                g.add_edge(i, j, rng.gen_range(1..=64u64) * 10);
            }
        }
    }
    let mut planner = DeltaPlanner::new(Instance::new(g, 4, 50));
    let mut cold_rounds = 0u64;
    let mut rows = Vec::new();
    for round in 1..=SESSION_ROUNDS[SESSION_ROUNDS.len() - 1] {
        let batch: Vec<MatrixDelta> = (0..2)
            .map(|_| MatrixDelta::Set {
                sender: rng.gen_range(0..SESSION_N),
                receiver: rng.gen_range(0..SESSION_N),
                ticks: if rng.gen_range(0..10u32) < 6 {
                    0
                } else {
                    rng.gen_range(1..=96u64) * 10
                },
            })
            .collect();
        let out = planner.replan(&batch);
        cold_rounds += u64::from(out.level == RepairLevel::Cold);
        if SESSION_ROUNDS.contains(&round) {
            let inst = planner.instance();
            rows.push(format!(
                "    {{\"instance\": \"session_n{SESSION_N}_seed1\", \"round\": {round}, \"k\": {}, \"beta\": {}, \"lb\": {}, \"cost\": {}, \"steps\": {}, \"cost_over_lb\": {:.6}, \"edge_id_bound\": {}, \"cold_rounds\": {cold_rounds}}}",
                inst.k,
                inst.beta,
                out.lower_bound,
                out.cost,
                planner.schedule().num_steps(),
                out.cost as f64 / out.lower_bound as f64,
                inst.graph.edge_id_bound(),
            ));
        }
    }
    rows
}

/// Plans every instance with flat OGGP and default-block hier, the
/// (instance, planner) cases fanned out over `jobs` threads, and returns
/// one JSON row per case.
pub fn case_rows(jobs: usize) -> Vec<String> {
    let instances = instances();
    let cases: Vec<(&str, &Instance, bool)> = instances
        .iter()
        .flat_map(|(name, inst)| [(name.as_str(), inst, false), (name.as_str(), inst, true)])
        .collect();
    parallel_map(&cases, jobs, |&(name, inst, is_hier)| {
        let (algo, s) = if is_hier {
            ("hier", hier(inst, &HierConfig::new(0).with_jobs(jobs)))
        } else {
            ("oggp", oggp(inst))
        };
        let lb = lower_bound(inst);
        format!(
            "    {{\"instance\": \"{name}\", \"algo\": \"{algo}\", \"n\": {}, \"m\": {}, \"k\": {}, \"beta\": {}, \"lb\": {lb}, \"cost\": {}, \"steps\": {}, \"cost_over_lb\": {:.6}}}",
            inst.graph.left_count(),
            inst.graph.edge_count(),
            inst.k,
            inst.beta,
            s.cost(),
            s.num_steps(),
            s.cost() as f64 / lb as f64
        )
    })
}

/// The ledger JSON (one row per line) from [`session_rows`] and
/// [`case_rows`].
pub fn render(sessions: &[String], cases: &[String]) -> String {
    format!(
        "{{\n  \"campaign\": \"fixed_seed_quality_v1\",\n  \"sessions\": [\n{}\n  ],\n  \"cases\": [\n{}\n  ]\n}}\n",
        sessions.join(",\n"),
        cases.join(",\n")
    )
}
