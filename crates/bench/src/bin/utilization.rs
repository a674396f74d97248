//! Why scheduling wins: backbone utilisation of the two experimental arms.
//!
//! The brute-force arm drives 100 flows through every shaper at once; the
//! TCP model's per-flow overhead leaves capacity on the floor. The
//! scheduled arm runs exactly `k` uncontended flows per step and saturates
//! the backbone. This harness measures the mean backbone utilisation of the
//! brute-force arm for k ∈ {3, 5, 7} and relates it to the measured
//! improvement — the mechanism behind Figures 10–11. Every brute-force flow
//! crosses the one backbone, so its mean utilisation is the volume moved
//! over what the backbone could have carried in the makespan.
//!
//! ```sh
//! cargo run --release -p bench --bin utilization
//! ```

use bench::row;
use flowsim::network::BYTES_PER_S_PER_MBPS;
use flowsim::{NetworkSpec, SimConfig, TcpModel};
use kpbs::traffic::TickScale;
use kpbs::{oggp, Platform, Topology, TrafficMatrix};
use rand::{rngs::SmallRng, SeedableRng};
use redistexec::{brute_force, execute_fault_free, SimTransport};
use telemetry::cli::Args;

fn main() {
    let mut cli = Args::from_env("utilization");
    let hi_mb: u64 = cli.value("size").unwrap_or(40);
    cli.finish();
    println!("backbone utilisation, 10x10 all-to-all, sizes U[10,{hi_mb}] MB:");
    row(&[
        "k".into(),
        "brute util".into(),
        "brute (s)".into(),
        "OGGP (s)".into(),
        "gain".into(),
    ]);
    for k in [3usize, 5, 7] {
        let platform = Platform::testbed(k);
        let spec = NetworkSpec::from_platform(&platform);
        let mut rng = SmallRng::seed_from_u64(300 + k as u64);
        let traffic = TrafficMatrix::uniform_mb(&mut rng, 10, 10, 10, hi_mb);
        let cfg = SimConfig {
            tcp: TcpModel::default(),
            seed: 1,
        };
        let brute = brute_force(SimTransport::new(spec.clone(), cfg.clone()), &traffic);
        let util = traffic.total_bytes() as f64 / (100.0 * BYTES_PER_S_PER_MBPS * brute);

        let (inst, _) = traffic.to_instance(&platform, 0.05, TickScale::MILLIS);
        let schedule = oggp(&inst);
        let transport = SimTransport::new(spec, cfg);
        let topo = Topology::from_platform(&platform);
        let sched = execute_fault_free(
            transport,
            &traffic,
            &topo,
            0.05,
            TickScale::MILLIS,
            &schedule,
        );
        row(&[
            k.to_string(),
            format!("{:.1}%", util * 100.0),
            format!("{brute:.1}"),
            format!("{:.1}", sched.total_seconds),
            format!("{:.1}%", (1.0 - sched.total_seconds / brute) * 100.0),
        ]);
    }
    println!(
        "\nthe brute-force arm's utilisation deficit tracks the scheduled arm's gain:\n\
         per-flow fair shares shrink as k grows (10/k Mbit/s), so TCP's fixed\n\
         per-flow overhead wastes a growing fraction of the backbone."
    );
}
