//! Code coupling over a backbone — the scenario motivating the paper's
//! introduction: an ocean model on cluster 1 streams its boundary data to an
//! atmosphere model on cluster 2 every coupling period, and the backbone is
//! the bottleneck.
//!
//! Compares the brute-force "open every TCP connection at once" approach to
//! GGP/OGGP scheduling over the same lossy transport, reproducing the
//! structure of the paper's Figures 10–11.
//!
//! ```sh
//! cargo run --release --example code_coupling
//! ```

use rand::{rngs::SmallRng, SeedableRng};
use redistribute::flowsim::{NetworkSpec, SimConfig, TcpModel};
use redistribute::kpbs::{Platform, Topology, TrafficMatrix};
use redistribute::redistexec::{brute_force, SimTransport};
use redistribute::{Algo, Planner};

fn main() {
    // The paper's testbed: 10 + 10 nodes, NICs shaped to 100/k Mbit/s,
    // 100 Mbit/s interconnect.
    let k = 5;
    let platform = Platform::testbed(k);
    let spec = NetworkSpec::from_platform(&platform);
    println!("testbed: k = {}, NICs {:.1} Mbit/s", k, platform.t1);

    // Boundary exchange: every pair of subdomains overlaps a little; sizes
    // 10..40 MB.
    let mut rng = SmallRng::seed_from_u64(2004);
    let traffic = TrafficMatrix::uniform_mb(&mut rng, 10, 10, 10, 40);
    println!(
        "coupling volume: {:.0} MB in {} messages\n",
        traffic.total_bytes() as f64 / 1e6,
        traffic.message_count()
    );

    // Both arms run over the same calibrated TCP model.
    let lossy = SimConfig {
        tcp: TcpModel::default(),
        seed: 1,
    };

    let brute = brute_force(SimTransport::new(spec.clone(), lossy.clone()), &traffic);
    println!("brute-force TCP : {brute:>8.2} s");

    for algo in [Algo::Ggp, Algo::Oggp] {
        let plan = Planner::new(algo)
            .plan(&traffic, &Topology::from_platform(&platform))
            .expect("every pair of the testbed is routable");
        let run = plan.simulate(&spec, &lossy);
        println!(
            "{:>15?} : {:>8.2} s ({} steps, ratio to bound {:.4}, {:+.1}% vs brute force)",
            algo,
            run.total_seconds,
            run.steps.len(),
            plan.evaluation_ratio(),
            (run.total_seconds / brute - 1.0) * 100.0
        );
    }

    // The paper's other observation: brute force is non-deterministic.
    println!("\nbrute-force run-to-run variation (5 seeds):");
    for seed in 0..5 {
        let cfg = SimConfig {
            tcp: TcpModel::default(),
            seed,
        };
        let t = brute_force(SimTransport::new(spec.clone(), cfg), &traffic);
        println!("  seed {seed}: {t:.2} s");
    }
}
