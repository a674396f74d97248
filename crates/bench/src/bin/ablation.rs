//! Ablation study of the design choices DESIGN.md calls out:
//!
//! * **weight-regular peeling** (GGP) vs. plain greedy peeling without the
//!   regularisation (`preemptive_greedy`),
//! * **bottleneck matchings** (OGGP) vs. arbitrary perfect matchings (GGP),
//! * **peeling** altogether vs. non-preemptive list scheduling and the
//!   one-message-per-step sequential strawman.
//!
//! Reports mean/max evaluation ratios and step counts over a seeded random
//! campaign for several β regimes.
//!
//! ```sh
//! cargo run --release -p bench --bin ablation -- --trials 300
//! ```

use bench::{f2, f4, row};
use bipartite::generate::{random_graph, GraphParams};
use kpbs::ggp::ggp_seeded;
use kpbs::stats::RatioStats;
use kpbs::{baselines, ggp, lower_bound, oggp, Instance};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use telemetry::cli::Args;

type Scheduler = fn(&Instance) -> kpbs::Schedule;

fn main() {
    let mut cli = Args::from_env("ablation");
    let trials: usize = cli.value("trials").unwrap_or(300);
    cli.finish();
    let schedulers: Vec<(&str, Scheduler)> = vec![
        ("ggp", ggp),
        ("ggp-seed", ggp_seeded),
        ("oggp", oggp),
        ("greedy", baselines::preemptive_greedy),
        ("list", baselines::nonpreemptive_list),
        ("sequential", baselines::sequential),
    ];

    for beta in [0u64, 1, 5, 20] {
        println!("\n=== beta = {beta}, weights U[1,20], {trials} trials ===");
        row(&[
            "sched".into(),
            "avg ratio".into(),
            "max ratio".into(),
            "avg steps".into(),
        ]);
        let mut stats: Vec<(RatioStats, f64)> =
            vec![(RatioStats::default(), 0.0); schedulers.len()];
        let mut rng = SmallRng::seed_from_u64(600 + beta);
        let params = GraphParams {
            max_nodes_per_side: 12,
            max_edges: 120,
            weight_range: (1, 20),
        };
        for _ in 0..trials {
            let g = random_graph(&mut rng, &params);
            let k = rng.gen_range(1..=g.left_count().min(g.right_count()));
            let inst = Instance::new(g, k, beta);
            let lb = lower_bound(&inst) as f64;
            for (i, (name, f)) in schedulers.iter().enumerate() {
                let s = f(&inst);
                debug_assert!(s.validate(&inst).is_ok(), "{name}");
                stats[i].0.push(s.cost() as f64 / lb);
                stats[i].1 += s.num_steps() as f64;
            }
        }
        for (i, (name, _)) in schedulers.iter().enumerate() {
            row(&[
                (*name).into(),
                f4(stats[i].0.mean),
                f4(stats[i].0.max),
                f2(stats[i].1 / trials as f64),
            ]);
        }
    }
}
