//! The fixed-seed schedule-quality ledger behind `BENCH_quality.json`.
//!
//! Plans a few instances at the sizes the end-to-end benchmark times —
//! two of the `plan-flat` family (`sparse_clustered`, n = 512, 22
//! clusters, k = 32, β = 1) and `BENCH_scale.json`'s n = 256 instance —
//! with flat OGGP and with `hier` at its default block count, and records
//! per schedule the instance's shape, its lower bound, the schedule's cost
//! and steps, and cost / lower bound to 6 decimals. Planning is a pure
//! function of the instance, so the JSON [`run`] returns is byte-identical
//! across runs, machines, build profiles and `jobs` values.
//!
//! `BENCH_schedules.json` pins schedule bytes on small instances; this
//! file makes the quality a planner pays at scale visible in every diff.
//! `tests/quality_baseline.rs` compares [`run`] with the checked-in file
//! and, on a mismatch, writes the fresh JSON under `target/` for review.

use kpbs::batch::parallel_map;
use kpbs::hier::{hier, HierConfig};
use kpbs::{instances, lower_bound, oggp, Instance};
use rand::{rngs::SmallRng, SeedableRng};

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

/// Plans every instance with flat OGGP and default-block hier, the
/// (instance, planner) cases fanned out over `jobs` threads, and returns
/// the ledger JSON (one row per line).
pub fn run(jobs: usize) -> String {
    let instances = instances();
    let cases: Vec<(&str, &Instance, bool)> = instances
        .iter()
        .flat_map(|(name, inst)| [(name.as_str(), inst, false), (name.as_str(), inst, true)])
        .collect();
    let rows = parallel_map(&cases, jobs, |&(name, inst, is_hier)| {
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
    });
    format!(
        "{{\n  \"campaign\": \"fixed_seed_quality_v1\",\n  \"cases\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}
