//! In-text claim of Section 5.2: "OGGP algorithm has 50% less steps of
//! communication" than GGP (yet the same total time, because the barriers
//! are cheap). This harness measures the step-count ratio on both the
//! testbed workloads (Figs 10–11) and the random-graph campaign (Fig 7).
//!
//! ```sh
//! cargo run --release -p bench --bin steps_table
//! ```

use bench::{f2, row};
use kpbs::stats::{run_campaign, CampaignConfig, KChoice};
use kpbs::traffic::TickScale;
use kpbs::{ggp, oggp, Platform, TrafficMatrix};
use rand::{rngs::SmallRng, SeedableRng};
use telemetry::cli::Args;

fn main() {
    let mut cli = Args::from_env("steps_table");
    let trials: usize = cli.value("trials").unwrap_or(300);
    cli.finish();

    println!("Testbed workloads (10x10 all-to-all, sizes U[10,50] MB):");
    row(&[
        "k".into(),
        "GGP steps".into(),
        "OGGP steps".into(),
        "ratio".into(),
    ]);
    for k in [3, 5, 7] {
        let platform = Platform::testbed(k);
        let mut rng = SmallRng::seed_from_u64(500 + k as u64);
        let traffic = TrafficMatrix::uniform_mb(&mut rng, 10, 10, 10, 50);
        let (inst, _) = traffic.to_instance(&platform, 0.05, TickScale::MILLIS);
        let sg = ggp(&inst);
        let so = oggp(&inst);
        row(&[
            k.to_string(),
            sg.num_steps().to_string(),
            so.num_steps().to_string(),
            f2(sg.num_steps() as f64 / so.num_steps() as f64),
        ]);
    }

    println!("\nRandom-graph campaign (Fig 7 workload, {trials} trials/point):");
    row(&["k".into(), "avg GGP/OGGP step ratio".into(), "max".into()]);
    for k in [1, 2, 4, 8, 16] {
        let cfg = CampaignConfig {
            trials,
            max_nodes_per_side: 20,
            max_edges: 400,
            weight_range: (1, 20),
            beta: 1,
            k: KChoice::Fixed(k),
            seed: 90 + k as u64,
        };
        let r = run_campaign(&cfg);
        row(&[k.to_string(), f2(r.step_ratio.mean), f2(r.step_ratio.max)]);
    }
}
