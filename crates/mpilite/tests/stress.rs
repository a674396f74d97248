//! Stress and integration tests of the threaded runtime: fan-in brute
//! force and back-to-back collectives — the kind of abuse a redistribution
//! library meets in production. Scheduled runs through the runtime's
//! `MpiTransport` are stressed in `redistexec`'s `tests/stress.rs`.

use kpbs::TrafficMatrix;
use mpilite::{
    alltoallv_recv, alltoallv_send, run_brute_force, FabricConfig, Rank, World, WorldConfig,
};

fn fast_fabric() -> FabricConfig {
    FabricConfig {
        out_bytes_per_s: 4e9,
        in_bytes_per_s: 4e9,
        backbone_bytes_per_s: 8e9,
        chunk_bytes: 64 * 1024,
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
