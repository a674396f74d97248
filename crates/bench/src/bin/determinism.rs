//! In-text claim of Section 5.2: "The brute-force approach does not behave
//! deterministically. When conducting several time the same experiments we
//! see a time variation of up to 10 percents. [...] our approach on the
//! opposite behaves deterministically."
//!
//! Repeats both arms of the testbed experiment over many seeds and reports
//! the spread.
//!
//! ```sh
//! cargo run --release -p bench --bin determinism
//! ```

use bench::row;
use flowsim::{NetworkSpec, SimConfig, TcpModel};
use kpbs::traffic::TickScale;
use kpbs::{oggp, Platform, Topology, TrafficMatrix};
use rand::{rngs::SmallRng, SeedableRng};
use redistexec::{brute_force, execute_fault_free, SimTransport};
use telemetry::cli::Args;

fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    (min, mean, max)
}

fn main() {
    let mut cli = Args::from_env("determinism");
    let runs: u64 = cli.value("runs").unwrap_or(15);
    let k: usize = cli.value("k").unwrap_or(5);
    cli.finish();
    let platform = Platform::testbed(k);
    let spec = NetworkSpec::from_platform(&platform);
    let mut rng = SmallRng::seed_from_u64(77);
    let traffic = TrafficMatrix::uniform_mb(&mut rng, 10, 10, 10, 40);
    let (inst, _) = traffic.to_instance(&platform, 0.05, TickScale::MILLIS);
    let schedule = oggp(&inst);
    let topo = Topology::from_platform(&platform);

    let mut brute = Vec::new();
    let mut sched = Vec::new();
    for seed in 0..runs {
        let cfg = SimConfig {
            tcp: TcpModel::default(),
            seed,
        };
        brute.push(brute_force(
            SimTransport::new(spec.clone(), cfg.clone()),
            &traffic,
        ));
        let transport = SimTransport::new(spec.clone(), cfg);
        let report = execute_fault_free(
            transport,
            &traffic,
            &topo,
            0.05,
            TickScale::MILLIS,
            &schedule,
        );
        sched.push(report.total_seconds);
    }

    let (bmin, bmean, bmax) = spread(&brute);
    let (smin, smean, smax) = spread(&sched);
    println!("testbed k = {k}, {runs} runs with different seeds:");
    row(&[
        "arm".into(),
        "min (s)".into(),
        "mean (s)".into(),
        "max (s)".into(),
        "variation".into(),
    ]);
    row(&[
        "brute".into(),
        format!("{bmin:.2}"),
        format!("{bmean:.2}"),
        format!("{bmax:.2}"),
        format!("{:.1}%", (bmax - bmin) / bmean * 100.0),
    ]);
    row(&[
        "OGGP".into(),
        format!("{smin:.2}"),
        format!("{smean:.2}"),
        format!("{smax:.2}"),
        format!("{:.1}%", (smax - smin) / smean * 100.0),
    ]);
    assert_eq!(
        smin, smax,
        "scheduled arm must be bit-for-bit deterministic"
    );
    println!("\nscheduled arm: identical across all seeds (deterministic), as the paper observed");
}
