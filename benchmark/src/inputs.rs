//! Seeded input generators. The same `--seed` gives byte-identical request
//! frames, delta streams, instances and fault plans; the program under test
//! only ever sees what is generated here.

use kpbs::traffic::TickScale;
use kpbs::{Instance, Platform, Topology, TrafficMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use redistd::client;
use redistd::wire::{Algo, PlanRequest, WireDelta};
use redistexec::{FaultPlan, FaultSpec};

/// Per-step setup delay of every serving and execution workload, seconds.
pub const BETA_SECONDS: f64 = 0.05;
pub const SCALE: TickScale = TickScale::MILLIS;

/// Independent generator streams, so adding draws to one input family never
/// shifts another.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    ServeMatrix,
    SessionMatrix,
    SessionDeltas,
    PlanInstance,
    ExecTraffic,
    ExecFaults,
    CacheKeys,
}

/// A generator for item `index` of `stream` under `seed`.
pub fn rng(seed: u64, stream: Stream, index: u64) -> SmallRng {
    let tag = (stream as u64 + 1) << 56;
    SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    )
}

/// `redistload`'s matrix family: `n x n`, ~40 % dense, 1–64 MB cells —
/// big enough that every instance needs several steps.
fn dense40(rng: &mut SmallRng, n: usize) -> TrafficMatrix {
    let mut traffic = TrafficMatrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            if rng.gen_range(0..10u32) < 4 {
                traffic.set(r, c, rng.gen_range(1..=64u64) * 1_000_000);
            }
        }
    }
    if traffic.total_bytes() == 0 {
        traffic.set(0, 0, 8_000_000);
    }
    traffic
}

/// The platform of the serving workloads.
pub fn serve_platform(n: usize) -> Platform {
    Platform::new(n, n, 100.0, 100.0, 400.0)
}

pub const SERVE_N: usize = 32;
pub const SESSION_N: usize = 64;

/// Plan request `index` of the serving pool (request id 0; the generator
/// thread stamps ids as it sends).
pub fn serve_request(seed: u64, index: u64) -> PlanRequest {
    let traffic = dense40(&mut rng(seed, Stream::ServeMatrix, index), SERVE_N);
    client::request(
        0,
        Algo::Oggp,
        &traffic,
        &serve_platform(SERVE_N),
        BETA_SECONDS,
    )
}

/// The matrix session `session` opens with.
pub fn session_matrix(seed: u64, session: u64) -> TrafficMatrix {
    dense40(&mut rng(seed, Stream::SessionMatrix, session), SESSION_N)
}

/// The delta stream of one session: a coflow tick of `SetCell` edits per
/// round, ~60 % departures (cell cleared), the rest arrivals or reshapes of
/// 1–96 MB. With that mix the matrix stays near the 40 % density it opens
/// with, so a round costs the same early and late in a run (`redistload`'s
/// 40 % departures let it fill up to 60 %).
#[derive(Debug, Clone)]
pub struct DeltaStream {
    rng: SmallRng,
}

pub const DELTA_CELLS: usize = 2;

impl DeltaStream {
    pub fn new(seed: u64, session: u64) -> DeltaStream {
        DeltaStream {
            rng: rng(seed, Stream::SessionDeltas, session),
        }
    }

    pub fn next_batch(&mut self) -> Vec<WireDelta> {
        let n = SESSION_N as u32;
        (0..DELTA_CELLS)
            .map(|_| WireDelta::SetCell {
                sender: self.rng.gen_range(0..n),
                receiver: self.rng.gen_range(0..n),
                bytes: if self.rng.gen_range(0..10u32) < 6 {
                    0
                } else {
                    self.rng.gen_range(1..=96u64) * 1_000_000
                },
            })
            .collect()
    }
}

pub const PLAN_POOL: usize = 8;
pub const PLAN_N: usize = 512;

/// The instance pool `plan-flat` and `plan-hier` share.
pub fn plan_instances(seed: u64) -> Vec<Instance> {
    (0..PLAN_POOL as u64)
        .map(|i| {
            let mut rng = rng(seed, Stream::PlanInstance, i);
            kpbs::instances::sparse_clustered(&mut rng, PLAN_N, 22, 8, 0.1, 10_000, 32, 1)
        })
        .collect()
}

/// The two-backbone topology of `exec-faults`: 64 x 64, `k_b` = [16, 8].
pub fn exec_topology() -> Topology {
    kpbs::instances::two_backbone_topology(32, 100.0, 40.0, 1600.0, 320.0)
}

pub const EXEC_TRAFFIC_POOL: usize = 8;
/// Fault variants per traffic matrix; variant 0 is fault-free.
pub const EXEC_FAULT_VARIANTS: usize = 4;

pub fn exec_traffic(seed: u64, topo: &Topology) -> Vec<TrafficMatrix> {
    (0..EXEC_TRAFFIC_POOL as u64)
        .map(|i| {
            kpbs::instances::routable_traffic(&mut rng(seed, Stream::ExecTraffic, i), topo, 20)
        })
        .collect()
}

/// The fault plan of op `op` in the cycling op list: op `i` runs traffic
/// matrix `i % 8` under variant `(i / 8) % 4`.
pub fn exec_fault_plan(seed: u64, op: u64, topo: &Topology) -> FaultPlan {
    let op = op % (EXEC_TRAFFIC_POOL * EXEC_FAULT_VARIANTS) as u64;
    if op / EXEC_TRAFFIC_POOL as u64 == 0 {
        return FaultPlan::none();
    }
    let spec = FaultSpec {
        transients: 8,
        node_drops: 2,
        slowdowns: 2,
        nic_slowdowns: 2,
        link_degradations: 2,
        links: 2,
        horizon: 64,
        ..FaultSpec::default()
    };
    // `FaultPlan::generate` takes its own seed; derive it from ours.
    let fault_seed = rng(seed, Stream::ExecFaults, op).gen_range(0..u64::MAX);
    FaultPlan::generate(fault_seed, topo.senders(), topo.receivers(), &spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redistd::wire;

    #[test]
    fn same_seed_same_request_frames() {
        for i in [0, 1, 4095] {
            let a = wire::encode_request(&serve_request(1, i));
            assert_eq!(a, wire::encode_request(&serve_request(1, i)));
            assert_ne!(a, wire::encode_request(&serve_request(2, i)));
            assert_ne!(a, wire::encode_request(&serve_request(1, i + 1)));
        }
    }

    #[test]
    fn same_seed_same_delta_stream() {
        let batches = |seed, session| {
            let mut s = DeltaStream::new(seed, session);
            (0..50).map(|_| s.next_batch()).collect::<Vec<_>>()
        };
        assert_eq!(batches(1, 0), batches(1, 0));
        assert_ne!(batches(1, 0), batches(2, 0));
        assert_ne!(batches(1, 0), batches(1, 1));
        assert_eq!(batches(1, 0)[0].len(), DELTA_CELLS);
    }

    #[test]
    fn same_seed_same_fault_plans_and_variant_zero_is_fault_free() {
        let topo = exec_topology();
        assert_eq!(topo.link_ks(), vec![16, 8]);
        for op in 0..40 {
            let a = exec_fault_plan(1, op, &topo);
            assert_eq!(a, exec_fault_plan(1, op, &topo));
            assert_eq!(a.is_empty(), (op / 8) % 4 == 0, "op {op}");
        }
        assert_ne!(exec_fault_plan(1, 8, &topo), exec_fault_plan(2, 8, &topo));
        // The op list cycles with period 32.
        assert_eq!(exec_fault_plan(1, 9, &topo), exec_fault_plan(1, 41, &topo));
        let t = exec_traffic(1, &topo);
        assert_eq!(t, exec_traffic(1, &topo));
        assert_ne!(t, exec_traffic(2, &topo));
    }

    #[test]
    fn same_seed_same_plan_instances() {
        let edges = |seed| {
            plan_instances(seed)
                .iter()
                .map(|i| i.graph.edges().collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(edges(1), edges(1));
        assert_ne!(edges(1), edges(2));
    }
}
