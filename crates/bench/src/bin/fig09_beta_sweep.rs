//! Figure 9: evaluation ratios as β increases.
//!
//! Weights uniform in [1, 20], k random per trial, β swept along the
//! x-axis. Expected shape: ratios peak (≈ 1.8 for GGP max, ≈ 1.6 for OGGP
//! max, ≈ 1.2 for the OGGP average) while β is comparable to the weights,
//! then fall because the optimal cost itself grows with β.
//!
//! ```sh
//! cargo run --release -p bench --bin fig09_beta_sweep -- --trials 2000
//! ```

use bench::{f4, row};
use kpbs::stats::{run_campaign, CampaignConfig, KChoice};
use telemetry::cli::Args;

fn main() {
    let mut cli = Args::from_env("fig09_beta_sweep");
    let trials: usize = cli.value("trials").unwrap_or(2000);
    let seed: u64 = cli.value("seed").unwrap_or(9);
    let csv = cli.flag("csv");
    cli.finish();
    let betas: Vec<u64> = vec![0, 1, 2, 3, 5, 8, 12, 16, 20, 30, 40, 60, 80, 100];

    if csv {
        println!("beta,ggp_avg,ggp_max,oggp_avg,oggp_max");
    } else {
        println!(
            "Figure 9: evaluation ratios vs beta, weights U[1,20], random k, {trials} trials/point"
        );
        row(&[
            "beta".into(),
            "GGP avg".into(),
            "GGP max".into(),
            "OGGP avg".into(),
            "OGGP max".into(),
        ]);
    }
    for &beta in &betas {
        let cfg = CampaignConfig {
            trials,
            max_nodes_per_side: 40,
            max_edges: 400,
            weight_range: (1, 20),
            beta,
            k: KChoice::Random,
            seed: seed.wrapping_add(beta),
        };
        let r = run_campaign(&cfg);
        if csv {
            println!(
                "{beta},{},{},{},{}",
                r.ggp.mean, r.ggp.max, r.oggp.mean, r.oggp.max
            );
        } else {
            row(&[
                beta.to_string(),
                f4(r.ggp.mean),
                f4(r.ggp.max),
                f4(r.oggp.mean),
                f4(r.oggp.max),
            ]);
        }
    }
}
