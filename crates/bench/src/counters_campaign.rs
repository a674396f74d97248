//! The fixed-seed work-counter campaign behind `BENCH_counters.json`.
//!
//! Runs a small campaign across the scheduler (GGP and OGGP with
//! regularisation), the hierarchical and topology planners, the flow
//! simulator and the threaded runtime, recording the telemetry work
//! counters of each phase. Every counted quantity is a pure function of the
//! fixed seeds, so the JSON [`run`] returns is byte-identical across runs,
//! machines, build profiles and `jobs` values. `tests/counters_baseline.rs`
//! compares it against the checked-in baseline; the `counters_baseline`
//! binary rewrites or checks the file.
//!
//! The campaign enables the global counters and reads global snapshots, so
//! nothing else in the process may count work while it runs.

use bipartite::generate::complete_graph;
use kpbs::batch::parallel_map;
use kpbs::traffic::TickScale;
use kpbs::{ggp, oggp, Instance, Platform, Topology, TrafficMatrix};
use mpilite::FabricConfig;
use rand::{rngs::SmallRng, SeedableRng};
use redistexec::{execute_fault_free, MpiTransport, SimTransport};
use telemetry::counters::{self, Snapshot};

/// One campaign case: the counter deltas a named phase produced.
fn counters_json(s: &Snapshot) -> String {
    let body: Vec<String> = s
        .iter()
        .map(|(c, v)| format!("        \"{}\": {}", c.key(), v))
        .collect();
    format!("{{\n{}\n      }}", body.join(",\n"))
}

/// Runs the campaign with the scheduler arm fanned out over `jobs` threads
/// and returns the baseline JSON.
pub fn run(jobs: usize) -> String {
    counters::enable();
    let campaign_start = counters::global_snapshot();
    let mut cases: Vec<(String, Snapshot)> = Vec::new();

    // Scheduler arm: dense fixed-seed instances through both pipelines,
    // fanned out over `jobs` threads. Each case is measured with local
    // (per-thread) snapshots around its own run, so the deltas are exact
    // and independent of the thread assignment; results come back in input
    // order. With jobs = 1 everything runs inline on this thread.
    let mut rng = SmallRng::seed_from_u64(0xc0de);
    let mut scheduler_inputs: Vec<(String, bool, Instance)> = Vec::new();
    for &n in &[12usize, 16] {
        let g = complete_graph(&mut rng, n, n, (1, 500));
        let inst = Instance::new(g, n / 2, 1);
        scheduler_inputs.push((format!("oggp_complete_n{n}"), true, inst.clone()));
        scheduler_inputs.push((format!("ggp_complete_n{n}"), false, inst));
    }
    cases.extend(parallel_map(
        &scheduler_inputs,
        jobs,
        |(name, is_oggp, inst)| {
            let before = counters::local_snapshot();
            if *is_oggp {
                std::hint::black_box(oggp(inst));
            } else {
                std::hint::black_box(ggp(inst));
            }
            (name.clone(), counters::local_snapshot().delta(&before))
        },
    ));

    let mut record = |name: &str, f: &mut dyn FnMut()| {
        let before = counters::global_snapshot();
        f();
        cases.push((name.into(), counters::global_snapshot().delta(&before)));
    };

    // Hierarchical arm: the block-decomposed planner over a fixed-seed
    // clustered sparse instance. Partition assigns, block plans and
    // composed steps are pure functions of the seed, like everything else
    // here.
    let mut rng = SmallRng::seed_from_u64(0x41e5);
    let hier_inst = kpbs::instances::sparse_clustered(&mut rng, 64, 8, 4, 0.1, 100, 8, 1);
    record("hier_clustered_n64", &mut || {
        std::hint::black_box(kpbs::hier::hier(
            &hier_inst,
            &kpbs::hier::HierConfig::new(8),
        ));
    });

    // Topology arm: a fixed-seed heterogeneous plan through the
    // per-bottleneck planner; the derive-k, route and compose counters are
    // pure functions of the topology shape and the seeded matrix.
    let mut rng = SmallRng::seed_from_u64(0x7090);
    let topo = kpbs::instances::two_backbone_topology(4, 100.0, 40.0, 250.0, 80.0);
    let topo_traffic = kpbs::instances::routable_traffic(&mut rng, &topo, 12);
    record("topo_two_backbone_n8", &mut || {
        std::hint::black_box(
            kpbs::plan_topology(
                &topo_traffic,
                &topo,
                0.05,
                TickScale::MILLIS,
                kpbs::Algo::Oggp,
            )
            .expect("fixed-seed topology plan"),
        );
    });

    // Simulator arm: OGGP schedule executed on the ideal fluid network
    // (one engine run per step: the delivery reuses the step's estimate).
    let mut rng = SmallRng::seed_from_u64(0xf10e);
    let platform = Platform::testbed(4);
    let traffic = TrafficMatrix::uniform_mb(&mut rng, platform.n1, platform.n2, 1, 5);
    let (inst, _) = traffic.to_instance(&platform, 0.05, TickScale::MILLIS);
    let schedule = oggp(&inst);
    let topo = Topology::from_platform(&platform);
    record("flowsim_scheduled", &mut || {
        let transport = SimTransport::for_platform(&platform);
        std::hint::black_box(execute_fault_free(
            transport,
            &traffic,
            &topo,
            0.05,
            TickScale::MILLIS,
            &schedule,
        ));
    });

    // Runtime arm: a plan moved as real bytes through the threaded world,
    // one world per step (its alignment barrier is the step barrier, so
    // barrier waits are structural, hence deterministic).
    let mut small = TrafficMatrix::zeros(4, 4);
    for i in 0..4 {
        for j in 0..4 {
            small.set(i, j, 8_000 + (i * 4 + j) as u64 * 1_000);
        }
    }
    let mplatform = Platform::new(4, 4, 100.0, 100.0, 200.0);
    let (minst, _) = small.to_instance(&mplatform, 0.0, TickScale::MILLIS);
    let mschedule = oggp(&minst);
    let mtopo = Topology::from_platform(&mplatform);
    let fabric = FabricConfig {
        out_bytes_per_s: 2e9,
        in_bytes_per_s: 2e9,
        backbone_bytes_per_s: 2e9,
        chunk_bytes: 64 * 1024,
    };
    record("mpilite_scheduled", &mut || {
        let transport = MpiTransport::new(4, 4, fabric);
        std::hint::black_box(execute_fault_free(
            transport,
            &small,
            &mtopo,
            0.0,
            TickScale::MILLIS,
            &mschedule,
        ));
    });

    let total = counters::global_snapshot().delta(&campaign_start);
    counters::disable();

    let case_objs: Vec<String> = cases
        .iter()
        .map(|(name, s)| {
            format!(
                "    {{\n      \"name\": \"{name}\",\n      \"counters\": {}\n    }}",
                counters_json(s)
            )
        })
        .collect();
    let total_body: Vec<String> = total
        .iter()
        .map(|(c, v)| format!("    \"{}\": {}", c.key(), v))
        .collect();
    format!(
        "{{\n  \"campaign\": \"fixed_seed_counters_v1\",\n  \"cases\": [\n{}\n  ],\n  \"total\": {{\n{}\n  }}\n}}\n",
        case_objs.join(",\n"),
        total_body.join(",\n")
    )
}
