//! The fixed-seed schedule-digest campaign behind `BENCH_schedules.json`.
//!
//! Plans every instance of [`kpbs::instances::regression_corpus`] plus a few
//! small seeded generator instances with every [`kpbs::Algo`] (hier twice:
//! at its default block count and at `blocks = 1`) and records, per
//! schedule, a 64-bit FNV-1a digest of its bytes — β, the step count, and
//! per step its length and each transfer's edge id and amount, in order —
//! next to its cost and step count. Planning is a pure function of the
//! instance, so the JSON [`run`] returns is byte-identical across runs,
//! machines, build profiles and `jobs` values.
//!
//! This is the byte-level pin the differential proptests cannot give: they
//! compare each planner with a reference that shares its normalisation and
//! extraction code, so a change there moves both sides at once.
//! `tests/schedules_baseline.rs` compares [`run`] with the checked-in file
//! and, on a mismatch, writes the fresh JSON under `target/` for review.

use bipartite::generate::complete_graph;
use kpbs::batch::parallel_map;
use kpbs::hier::HierConfig;
use kpbs::{instances, Algo, Instance, Schedule};
use rand::{rngs::SmallRng, SeedableRng};

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the schedule's numbers, each as 8 little-endian bytes.
fn digest(s: &Schedule) -> u64 {
    let mut h = FNV_OFFSET;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    };
    put(s.beta);
    put(s.steps.len() as u64);
    for step in &s.steps {
        put(step.transfers.len() as u64);
        for t in &step.transfers {
            put(t.edge.index() as u64);
            put(t.amount);
        }
    }
    h
}

/// The campaign's instances: the regression corpus, then seeded generator
/// instances kept small (n ≤ 64, β > 1 so normalisation scales weights)
/// because the gate runs in debug builds.
fn instances() -> Vec<(String, Instance)> {
    let mut out: Vec<(String, Instance)> = instances::regression_corpus()
        .into_iter()
        .map(|(name, inst)| (name.to_string(), inst))
        .collect();
    let mut rng = SmallRng::seed_from_u64(0x5c4e_d01e);
    out.push((
        "complete_12".into(),
        Instance::new(complete_graph(&mut rng, 12, 12, (1, 500)), 6, 5),
    ));
    out.push((
        "power_law_16".into(),
        instances::power_law(&mut rng, 16, 96, 1024, 4, 8),
    ));
    out.push((
        "sparse_uniform_32".into(),
        instances::sparse_uniform(&mut rng, 32, 4, 64, 5, 4),
    ));
    out.push((
        "sparse_pl_48".into(),
        instances::sparse_power_law(&mut rng, 48, 192, 512, 6, 2),
    ));
    out.push((
        "sparse_cluster_64".into(),
        instances::sparse_clustered(&mut rng, 64, 8, 4, 0.1, 100, 8, 3),
    ));
    out
}

/// Every planner, labelled: each of [`Algo::NAMES`], plus `hier_b1`.
fn planners() -> Vec<(String, Algo)> {
    let mut out: Vec<(String, Algo)> = Algo::NAMES
        .iter()
        .map(|name| (name.to_string(), name.parse().expect("a listed name")))
        .collect();
    out.push(("hier_b1".into(), Algo::Hier(HierConfig::new(1))));
    out
}

/// Plans every instance with every planner, the instances fanned out over
/// `jobs` threads, and returns the baseline JSON (one case per line).
pub fn run(jobs: usize) -> String {
    let planners = planners();
    let rows = parallel_map(&instances(), jobs, |(name, inst)| {
        planners
            .iter()
            .map(|(algo, planner)| {
                let s = planner.plan(inst);
                format!(
                    "    {{\"instance\": \"{name}\", \"algo\": \"{algo}\", \"steps\": {}, \"cost\": {}, \"digest\": \"{:016x}\"}}",
                    s.num_steps(),
                    s.cost(),
                    digest(&s)
                )
            })
            .collect::<Vec<_>>()
    });
    format!(
        "{{\n  \"campaign\": \"fixed_seed_schedules_v1\",\n  \"cases\": [\n{}\n  ]\n}}\n",
        rows.concat().join(",\n")
    )
}
