//! Figures 10 and 11: brute-force TCP vs GGP vs OGGP on the testbed.
//!
//! The paper's real-world experiment: two 10-node clusters, NICs shaped to
//! `100/k` Mbit/s, 100 Mbit/s interconnect. Message sizes uniform in
//! [10, n] MB; total redistribution time plotted as n grows. Run with
//! `--k 3` (Figure 10) or `--k 7` (Figure 11); default prints both.
//!
//! Expected shape: GGP ≈ OGGP, both 5–20 % under brute force, with the gap
//! growing with k.
//!
//! ```sh
//! cargo run --release -p bench --bin fig10_fig11_testbed -- --k 3
//! ```

use bench::{f2, row};
use flowsim::{NetworkSpec, SimConfig, TcpModel};
use kpbs::traffic::TickScale;
use kpbs::{ggp, oggp, Platform, Topology, TrafficMatrix};
use rand::{rngs::SmallRng, SeedableRng};
use redistexec::{brute_force, execute_fault_free, SimTransport};
use telemetry::cli::Args;

fn figure(k: usize, seeds: u64, beta: f64, csv: bool) {
    let platform = Platform::testbed(k);
    let spec = NetworkSpec::from_platform(&platform);
    let topo = Topology::from_platform(&platform);
    if csv {
        println!("k,n_mb,brute_s,ggp_s,oggp_s,ggp_gain_pct,oggp_gain_pct,ggp_steps,oggp_steps");
    } else {
        println!(
            "\nFigure {}: testbed with k = {k} (NICs {:.1} Mbit/s)",
            if k == 3 { "10" } else { "11" },
            platform.t1
        );
        row(&[
            "n (MB)".into(),
            "brute (s)".into(),
            "GGP (s)".into(),
            "OGGP (s)".into(),
            "GGP gain".into(),
            "OGGP gain".into(),
            "steps G/O".into(),
        ]);
    }
    for n in (10..=100).step_by(10) {
        // Average the brute force over several seeds (it jitters); the
        // scheduled arms are deterministic so one run suffices.
        let mut rng = SmallRng::seed_from_u64(1000 + n);
        let traffic = TrafficMatrix::uniform_mb(&mut rng, 10, 10, 10, n);
        let (inst, _) = traffic.to_instance(&platform, beta, TickScale::MILLIS);
        let sg = ggp(&inst);
        let so = oggp(&inst);

        let mut brute_sum = 0.0;
        for seed in 0..seeds {
            let cfg = SimConfig {
                tcp: TcpModel::default(),
                seed,
            };
            brute_sum += brute_force(SimTransport::new(spec.clone(), cfg), &traffic);
        }
        let brute = brute_sum / seeds as f64;

        let lossy = SimConfig {
            tcp: TcpModel::default(),
            seed: 0,
        };
        let scheduled = |schedule| {
            let transport = SimTransport::new(spec.clone(), lossy.clone());
            execute_fault_free(
                transport,
                &traffic,
                &topo,
                beta,
                TickScale::MILLIS,
                schedule,
            )
            .total_seconds
        };
        let (tg, to) = (scheduled(&sg), scheduled(&so));

        let gain = |t: f64| (1.0 - t / brute) * 100.0;
        if csv {
            println!(
                "{k},{n},{brute},{tg},{to},{},{},{},{}",
                gain(tg),
                gain(to),
                sg.num_steps(),
                so.num_steps()
            );
        } else {
            row(&[
                n.to_string(),
                f2(brute),
                f2(tg),
                f2(to),
                format!("{:.1}%", gain(tg)),
                format!("{:.1}%", gain(to)),
                format!("{}/{}", sg.num_steps(), so.num_steps()),
            ]);
        }
    }
}

fn main() {
    let mut cli = Args::from_env("fig10_fig11_testbed");
    let k: usize = cli.value("k").unwrap_or(0);
    let seeds: u64 = cli.value("seeds").unwrap_or(3);
    let beta: f64 = cli.value("beta").unwrap_or(0.05);
    let csv = cli.flag("csv");
    cli.finish();
    if k == 0 {
        figure(3, seeds, beta, csv);
        figure(7, seeds, beta, csv);
    } else {
        figure(k, seeds, beta, csv);
    }
}
