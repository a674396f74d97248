//! Figure 8: evaluation ratios for large weights.
//!
//! Same experiment as Figure 7 but with edge weights uniform in [1, 10000]
//! (data volumes far exceeding the setup delay β = 1). Expected shape: both
//! algorithms within a fraction of a percent of the lower bound — the paper
//! reports a worst ratio of 1.00016.
//!
//! ```sh
//! cargo run --release -p bench --bin fig08_large_weights -- --trials 500
//! ```

use bench::row;
use kpbs::stats::{run_campaign, CampaignConfig, KChoice};
use telemetry::cli::Args;

fn main() {
    let mut cli = Args::from_env("fig08_large_weights");
    let trials: usize = cli.value("trials").unwrap_or(500);
    let kmax: usize = cli.value("kmax").unwrap_or(40);
    let seed: u64 = cli.value("seed").unwrap_or(8);
    let csv = cli.flag("csv");
    cli.finish();

    if csv {
        println!("k,ggp_avg,ggp_max,oggp_avg,oggp_max");
    } else {
        println!(
            "Figure 8: evaluation ratios, weights U[1,10000], beta = 1, {trials} trials/point"
        );
        row(&[
            "k".into(),
            "GGP avg".into(),
            "GGP max".into(),
            "OGGP avg".into(),
            "OGGP max".into(),
        ]);
    }
    for k in 1..=kmax {
        let cfg = CampaignConfig {
            trials,
            max_nodes_per_side: 40,
            max_edges: 400,
            weight_range: (1, 10_000),
            beta: 1,
            k: KChoice::Fixed(k),
            seed: seed.wrapping_add(k as u64),
        };
        let r = run_campaign(&cfg);
        if csv {
            println!(
                "{k},{},{},{},{}",
                r.ggp.mean, r.ggp.max, r.oggp.mean, r.oggp.max
            );
        } else {
            row(&[
                k.to_string(),
                format!("{:.6}", r.ggp.mean),
                format!("{:.6}", r.ggp.max),
                format!("{:.6}", r.oggp.mean),
                format!("{:.6}", r.oggp.max),
            ]);
        }
    }
}
