//! Why scheduling wins: backbone utilisation of the two experimental arms.
//!
//! The brute-force arm drives 100 flows through every shaper at once; the
//! TCP model's per-flow overhead leaves capacity on the floor. The
//! scheduled arm runs exactly `k` uncontended flows per step and saturates
//! the backbone. This harness measures the mean backbone utilisation of the
//! brute-force arm (from the simulator's rate trace) for k ∈ {3, 5, 7} and
//! relates it to the measured improvement — the mechanism behind
//! Figures 10–11.
//!
//! ```sh
//! cargo run --release -p bench --bin utilization
//! ```

use bench::row;
use flowsim::network::BYTES_PER_S_PER_MBPS;
use flowsim::{brute_force_run, NetworkSpec, SimConfig, TcpModel};
use kpbs::traffic::TickScale;
use kpbs::{oggp, Platform, Topology, TrafficMatrix};
use rand::{rngs::SmallRng, SeedableRng};
use redistexec::{execute_fault_free, SimTransport};
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
            record_trace: true,
        };
        let brute = brute_force_run(&traffic, &spec, &cfg);
        let util = brute
            .trace
            .as_ref()
            .expect("trace requested")
            .mean_utilization(100.0 * BYTES_PER_S_PER_MBPS, brute.makespan);

        let (inst, _) = traffic.to_instance(&platform, 0.05, TickScale::MILLIS);
        let schedule = oggp(&inst);
        // The scheduled arm needs no rate trace.
        let untraced = SimConfig {
            record_trace: false,
            ..cfg
        };
        let transport = SimTransport::new(spec, untraced);
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
            format!("{:.1}", brute.makespan),
            format!("{:.1}", sched.total_seconds),
            format!(
                "{:.1}%",
                (1.0 - sched.total_seconds / brute.makespan) * 100.0
            ),
        ]);
    }
    println!(
        "\nthe brute-force arm's utilisation deficit tracks the scheduled arm's gain:\n\
         per-flow fair shares shrink as k grows (10/k Mbit/s), so TCP's fixed\n\
         per-flow overhead wastes a growing fraction of the backbone."
    );
}
