//! Stress and integration tests of the threaded runtime: bigger worlds,
//! randomised sparse traffic, concurrent collectives — the kind of abuse a
//! redistribution library meets in production.

use kpbs::traffic::TickScale;
use kpbs::{oggp, Platform, TrafficMatrix};
use mpilite::{
    alltoallv_recv, alltoallv_send, run_brute_force, run_schedule, FabricConfig, Rank, World,
    WorldConfig,
};
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn fast_fabric() -> FabricConfig {
    FabricConfig {
        out_bytes_per_s: 4e9,
        in_bytes_per_s: 4e9,
        backbone_bytes_per_s: 8e9,
        chunk_bytes: 64 * 1024,
    }
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
    let (inst, endpoints) = traffic.to_instance(&platform, 0.0, TickScale::MILLIS);
    let schedule = oggp(&inst);
    schedule.validate(&inst).unwrap();
    let r = run_schedule(&traffic, &inst, &endpoints, &schedule, fast_fabric());
    assert_eq!(r.bytes_moved, traffic.total_bytes());
}

#[test]
fn repeated_runs_stay_consistent() {
    // The same plan executed several times must always deliver everything
    // (exercises barrier reuse and channel reuse across worlds).
    let mut traffic = TrafficMatrix::zeros(3, 3);
    traffic.set(0, 1, 40_000);
    traffic.set(1, 2, 50_000);
    traffic.set(2, 0, 60_000);
    let platform = Platform::new(3, 3, 100.0, 100.0, 300.0);
    let (inst, endpoints) = traffic.to_instance(&platform, 0.0, TickScale::MILLIS);
    let schedule = oggp(&inst);
    for _ in 0..5 {
        let r = run_schedule(&traffic, &inst, &endpoints, &schedule, fast_fabric());
        assert_eq!(r.bytes_moved, 150_000);
    }
}

#[test]
fn brute_force_heavy_fanin() {
    // Every sender hammers one receiver: 1-port is deliberately violated by
    // the brute-force pattern; the runtime must still deliver.
    let mut traffic = TrafficMatrix::zeros(6, 2);
    for i in 0..6 {
        traffic.set(i, 0, 30_000);
    }
    let r = run_brute_force(&traffic, fast_fabric());
    assert_eq!(r.bytes_moved, 180_000);
}

#[test]
fn back_to_back_collectives() {
    // Two alltoallv rounds in one world; plans are recomputed per round and
    // barriers keep rounds from bleeding into each other.
    let n = 4;
    let mut sizes1 = TrafficMatrix::zeros(n, n);
    let mut sizes2 = TrafficMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            sizes1.set(i, j, (1 + i + j) as u64 * 1000);
            sizes2.set(i, j, (1 + i * j) as u64 * 500);
        }
    }
    let world = World::new(WorldConfig {
        senders: n,
        receivers: n,
        fabric: fast_fabric(),
    });
    let (s1, s2) = (&sizes1, &sizes2);
    world.run(|comm| {
        for (round, sizes) in [s1, s2].into_iter().enumerate() {
            match comm.rank() {
                Rank::Sender(s) => {
                    let data: Vec<Vec<u8>> = (0..n)
                        .map(|d| vec![(round * 100 + s * 10 + d) as u8; sizes.get(s, d) as usize])
                        .collect();
                    alltoallv_send(comm, sizes, 2, &data);
                }
                Rank::Receiver(d) => {
                    let got = alltoallv_recv(comm, sizes, 2);
                    for (s, buf) in got.iter().enumerate() {
                        assert_eq!(buf.len() as u64, sizes.get(s, d));
                        assert!(buf.iter().all(|&b| b == (round * 100 + s * 10 + d) as u8));
                    }
                }
            }
        }
    });
}

#[test]
fn single_pair_world() {
    // Degenerate world sizes must not deadlock.
    let mut traffic = TrafficMatrix::zeros(1, 1);
    traffic.set(0, 0, 123_456);
    let platform = Platform::new(1, 1, 100.0, 100.0, 100.0);
    let (inst, endpoints) = traffic.to_instance(&platform, 0.0, TickScale::MILLIS);
    let schedule = oggp(&inst);
    let r = run_schedule(&traffic, &inst, &endpoints, &schedule, fast_fabric());
    assert_eq!(r.bytes_moved, 123_456);
}
