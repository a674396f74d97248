//! Stress tests of the MPI arm: bigger worlds, randomised sparse traffic,
//! repeated and degenerate worlds and a brute-force fan-in, every message
//! moving real bytes through an [`MpiTransport`].

use kpbs::traffic::TickScale;
use kpbs::{oggp, Platform, Topology, TrafficMatrix};
use mpilite::FabricConfig;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use redistexec::{brute_force, execute_fault_free, MpiTransport, Transport};

fn fast_fabric() -> FabricConfig {
    FabricConfig {
        out_bytes_per_s: 4e9,
        in_bytes_per_s: 4e9,
        backbone_bytes_per_s: 8e9,
        chunk_bytes: 64 * 1024,
    }
}

/// Executes the OGGP plan of `traffic` fault-free over real bytes and
/// returns the bytes delivered.
fn run(traffic: &TrafficMatrix, platform: &Platform) -> u64 {
    let (inst, _) = traffic.to_instance(platform, 0.0, TickScale::MILLIS);
    let schedule = oggp(&inst);
    schedule.validate(&inst).unwrap();
    let transport = MpiTransport::new(platform.n1, platform.n2, fast_fabric());
    let topo = Topology::from_platform(platform);
    let report = execute_fault_free(transport, traffic, &topo, 0.0, TickScale::MILLIS, &schedule);
    report.verify_against(traffic).unwrap();
    report.delivered.total_bytes()
}

#[test]
fn brute_force_heavy_fanin() {
    // Every sender hammers one receiver: 1-port is deliberately violated by
    // the brute-force pattern; the transport must still deliver.
    let mut traffic = TrafficMatrix::zeros(6, 2);
    for i in 0..6 {
        traffic.set(i, 0, 30_000);
    }
    let mut transport = MpiTransport::new(6, 2, fast_fabric());
    brute_force(&mut transport, &traffic);
    assert_eq!(transport.delivered().total_bytes(), 180_000);
}

#[test]
fn eight_by_eight_scheduled_run() {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut traffic = TrafficMatrix::zeros(8, 8);
    for i in 0..8 {
        for j in 0..8 {
            if rng.gen_bool(0.6) {
                traffic.set(i, j, rng.gen_range(1_000..200_000));
            }
        }
    }
    let platform = Platform::new(8, 8, 100.0, 100.0, 400.0); // k = 4
    assert_eq!(run(&traffic, &platform), traffic.total_bytes());
}

#[test]
fn repeated_runs_stay_consistent() {
    // The same plan executed several times must always deliver everything
    // (one fresh world per step, so worlds are built and torn down often).
    let mut traffic = TrafficMatrix::zeros(3, 3);
    traffic.set(0, 1, 40_000);
    traffic.set(1, 2, 50_000);
    traffic.set(2, 0, 60_000);
    let platform = Platform::new(3, 3, 100.0, 100.0, 300.0);
    for _ in 0..5 {
        assert_eq!(run(&traffic, &platform), 150_000);
    }
}

#[test]
fn single_pair_world() {
    // Degenerate world sizes must not deadlock.
    let mut traffic = TrafficMatrix::zeros(1, 1);
    traffic.set(0, 0, 123_456);
    let platform = Platform::new(1, 1, 100.0, 100.0, 100.0);
    assert_eq!(run(&traffic, &platform), 123_456);
}
