//! Figure 7: evaluation ratios for small weights.
//!
//! Random bipartite graphs (≤ 40 nodes, ≤ 400 edges), edge weights uniform
//! in [1, 20], β = 1. For each k the average and maximum ratio of GGP and
//! OGGP cost to the lower bound over many trials. The paper used 100 000
//! trials per point; default here is 2 000 (see `--trials`).
//!
//! Expected shape: OGGP strictly below GGP, OGGP's *worst* case below GGP's
//! *average*, maximum ratios ≲ 1.15.
//!
//! ```sh
//! cargo run --release -p bench --bin fig07_small_weights -- --trials 2000
//! ```

use bench::{f4, row};
use kpbs::stats::{run_campaign, CampaignConfig, KChoice};
use telemetry::cli::Args;

fn main() {
    let mut cli = Args::from_env("fig07_small_weights");
    let trials: usize = cli.value("trials").unwrap_or(2000);
    let kmax: usize = cli.value("kmax").unwrap_or(40);
    let seed: u64 = cli.value("seed").unwrap_or(7);
    let csv = cli.flag("csv");
    cli.finish();

    if csv {
        println!("k,ggp_avg,ggp_max,seeded_avg,seeded_max,oggp_avg,oggp_max");
    } else {
        println!("Figure 7: evaluation ratios, weights U[1,20], beta = 1, {trials} trials/point");
        println!("(GGP* = GGP with a heaviest-seeded matching: same algorithm, the paper's");
        println!(" open matching choice biased towards heavy edges)");
        row(&[
            "k".into(),
            "GGP avg".into(),
            "GGP max".into(),
            "GGP* avg".into(),
            "GGP* max".into(),
            "OGGP avg".into(),
            "OGGP max".into(),
        ]);
    }
    for k in 1..=kmax {
        let cfg = CampaignConfig {
            trials,
            max_nodes_per_side: 40,
            max_edges: 400,
            weight_range: (1, 20),
            beta: 1,
            k: KChoice::Fixed(k),
            seed: seed.wrapping_add(k as u64),
        };
        let r = run_campaign(&cfg);
        if csv {
            println!(
                "{k},{},{},{},{},{},{}",
                r.ggp.mean, r.ggp.max, r.ggp_seeded.mean, r.ggp_seeded.max, r.oggp.mean, r.oggp.max
            );
        } else {
            row(&[
                k.to_string(),
                f4(r.ggp.mean),
                f4(r.ggp.max),
                f4(r.ggp_seeded.mean),
                f4(r.ggp_seeded.max),
                f4(r.oggp.mean),
                f4(r.oggp.max),
            ]);
        }
    }
}
