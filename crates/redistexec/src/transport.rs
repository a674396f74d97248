//! Pluggable transfer transports.
//!
//! A transport is handed a set of byte-valued transfer operations that run
//! at the same time. [`Runtime`](crate::Runtime) hands it one validated
//! *step* at a time (a matching: 1-port, each node at most once);
//! [`brute_force`](crate::brute_force) hands it every message at once, so
//! nodes repeat. The transport answers two questions — how long would this
//! set take ([`Transport::estimate`]), and actually move the bytes
//! ([`Transport::deliver`]) — and keeps the authoritative ledger of bytes
//! delivered per `(sender, receiver)` pair, which is exactly the matrix
//! [`kpbs::residual_matrix`] subtracts from the original demand when the
//! runtime re-plans.
//!
//! Three implementations ship, one per way the paper's schedules are
//! evaluated:
//!
//! * [`LoopbackTransport`] — analytic 1-port timing, no network model;
//! * [`SimTransport`] — every step runs through the [`flowsim`] max–min fair
//!   fluid engine (Figures 10–11). Slowdown faults are injected via
//!   [`NetworkSpec::scaled`] — a uniform capacity scale of `1/s` models a
//!   platform-wide slowdown of `s` exactly;
//! * [`MpiTransport`] — every call moves real bytes through an [`mpilite`]
//!   world of rank threads and token-bucket shaped NICs, the in-process
//!   analogue of the paper's MPICH runs, timed by wall clock.

use flowsim::{Engine, Flow, NetworkSpec, SimConfig};
use kpbs::{Platform, Topology, TrafficMatrix};
use mpilite::{FabricConfig, Rank, World, WorldConfig};

/// Fault shaping in force for one execution step.
///
/// The uniform `slowdown` is the legacy platform-wide factor; the optional
/// per-node and per-link vectors carry heterogeneous faults from
/// [`FaultPlan`](crate::FaultPlan): a factor of `f > 1.0` at index `i`
/// means node (or link) `i` currently runs `f×` slower. Empty vectors mean
/// "all 1.0", so [`StepFaults::uniform`] is exactly the legacy behaviour
/// and transports take byte-identical code paths for it.
#[derive(Debug, Clone, PartialEq)]
pub struct StepFaults {
    /// Platform-wide slowdown factor (≥ 1.0).
    pub slowdown: f64,
    /// Per-sender NIC slowdown factors; empty = all 1.0.
    pub sender_factors: Vec<f64>,
    /// Per-receiver NIC slowdown factors; empty = all 1.0.
    pub receiver_factors: Vec<f64>,
    /// Per-backbone-link degradation factors; empty = all 1.0. Indices
    /// past the end of the vector are treated as 1.0.
    pub link_factors: Vec<f64>,
}

impl StepFaults {
    /// Uniform shaping: only the platform-wide `slowdown` applies.
    pub fn uniform(slowdown: f64) -> Self {
        StepFaults {
            slowdown,
            sender_factors: Vec::new(),
            receiver_factors: Vec::new(),
            link_factors: Vec::new(),
        }
    }

    /// True when no per-node or per-link factor is in force, i.e. the
    /// scalar `slowdown` fully describes this step's shaping.
    pub fn is_uniform(&self) -> bool {
        self.sender_factors.is_empty()
            && self.receiver_factors.is_empty()
            && self.link_factors.is_empty()
    }

    fn sender_factor(&self, i: usize) -> f64 {
        self.sender_factors.get(i).copied().unwrap_or(1.0)
    }

    fn receiver_factor(&self, j: usize) -> f64 {
        self.receiver_factors.get(j).copied().unwrap_or(1.0)
    }
}

/// One byte-valued transfer of a step: `bytes` from sender `src` to
/// receiver `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferOp {
    /// Sending node (cluster `C1` index).
    pub src: usize,
    /// Receiving node (cluster `C2` index).
    pub dst: usize,
    /// Bytes to move.
    pub bytes: u64,
}

/// Adds every op's bytes to `ledger`.
fn record(ledger: &mut TrafficMatrix, ops: &[TransferOp]) {
    for op in ops {
        let sofar = ledger.get(op.src, op.dst);
        ledger.set(op.src, op.dst, sofar + op.bytes);
    }
}

/// A medium that can carry a step's transfers.
pub trait Transport {
    /// Projected duration of the step in seconds under `slowdown` (≥ 1.0),
    /// without moving any bytes. The runtime uses this for its per-step
    /// timeout check before committing to the step.
    fn estimate(&mut self, ops: &[TransferOp], slowdown: f64) -> f64;

    /// Carries the step: records every op's bytes as delivered and returns
    /// the step duration in seconds under `slowdown`.
    fn deliver(&mut self, ops: &[TransferOp], slowdown: f64) -> f64;

    /// The bytes delivered so far, per `(sender, receiver)` pair.
    fn delivered(&self) -> &TrafficMatrix;

    /// Like [`Transport::estimate`] but under full [`StepFaults`] shaping.
    ///
    /// The default implementation honours only `faults.slowdown` —
    /// transports that can model per-node NIC or per-link degradation
    /// faults must override this (and [`Transport::deliver_faulted`]).
    fn estimate_faulted(&mut self, ops: &[TransferOp], faults: &StepFaults) -> f64 {
        self.estimate(ops, faults.slowdown)
    }

    /// Like [`Transport::deliver`] but under full [`StepFaults`] shaping.
    fn deliver_faulted(&mut self, ops: &[TransferOp], faults: &StepFaults) -> f64 {
        self.deliver(ops, faults.slowdown)
    }
}

/// A borrowed transport carries for its owner, who keeps the ledger
/// afterwards (e.g. to read [`Transport::delivered`] after
/// [`brute_force`](crate::brute_force) consumed the borrow).
impl<T: Transport + ?Sized> Transport for &mut T {
    fn estimate(&mut self, ops: &[TransferOp], slowdown: f64) -> f64 {
        (**self).estimate(ops, slowdown)
    }

    fn deliver(&mut self, ops: &[TransferOp], slowdown: f64) -> f64 {
        (**self).deliver(ops, slowdown)
    }

    fn delivered(&self) -> &TrafficMatrix {
        (**self).delivered()
    }

    fn estimate_faulted(&mut self, ops: &[TransferOp], faults: &StepFaults) -> f64 {
        (**self).estimate_faulted(ops, faults)
    }

    fn deliver_faulted(&mut self, ops: &[TransferOp], faults: &StepFaults) -> f64 {
        (**self).deliver_faulted(ops, faults)
    }
}

/// In-memory transport with analytic 1-port timing: the ops of a step run
/// in parallel, each at the fixed per-transfer rate, so the step lasts as
/// long as its largest op (times the slowdown).
#[derive(Debug, Clone)]
pub struct LoopbackTransport {
    rate_bytes_per_s: f64,
    ledger: TrafficMatrix,
}

impl LoopbackTransport {
    /// A loopback transport for an `n1 × n2` platform at `rate_bytes_per_s`
    /// per transfer.
    pub fn new(n1: usize, n2: usize, rate_bytes_per_s: f64) -> Self {
        assert!(rate_bytes_per_s > 0.0 && rate_bytes_per_s.is_finite());
        LoopbackTransport {
            rate_bytes_per_s,
            ledger: TrafficMatrix::zeros(n1, n2),
        }
    }

    /// A loopback transport matching a [`Platform`]'s per-transfer speed
    /// `t = min(t1, t2)` Mbit/s.
    pub fn for_platform(p: &Platform) -> Self {
        LoopbackTransport::new(p.n1, p.n2, p.transfer_speed() * 1e6 / 8.0)
    }

    /// A loopback transport at the slowest sender–receiver pair speed of
    /// `topo` ([`Topology::slowest_platform`]); on the two-cluster topology
    /// exactly [`LoopbackTransport::for_platform`].
    pub fn for_topology(topo: &Topology) -> Self {
        LoopbackTransport::for_platform(&topo.slowest_platform())
    }
}

impl Transport for LoopbackTransport {
    fn estimate(&mut self, ops: &[TransferOp], slowdown: f64) -> f64 {
        let largest = ops.iter().map(|op| op.bytes).max().unwrap_or(0);
        largest as f64 / self.rate_bytes_per_s * slowdown
    }

    fn deliver(&mut self, ops: &[TransferOp], slowdown: f64) -> f64 {
        let seconds = self.estimate(ops, slowdown);
        record(&mut self.ledger, ops);
        seconds
    }

    fn delivered(&self) -> &TrafficMatrix {
        &self.ledger
    }

    /// Per-node NIC faults stretch each op by the product of its sender's
    /// and receiver's factors; the step still lasts as long as its slowest
    /// op. Link factors are ignored — loopback has no backbone to degrade.
    fn estimate_faulted(&mut self, ops: &[TransferOp], faults: &StepFaults) -> f64 {
        if faults.is_uniform() {
            return self.estimate(ops, faults.slowdown);
        }
        ops.iter()
            .map(|op| {
                op.bytes as f64 / self.rate_bytes_per_s
                    * faults.slowdown
                    * faults.sender_factor(op.src)
                    * faults.receiver_factor(op.dst)
            })
            .fold(0.0, f64::max)
    }

    fn deliver_faulted(&mut self, ops: &[TransferOp], faults: &StepFaults) -> f64 {
        let seconds = self.estimate_faulted(ops, faults);
        record(&mut self.ledger, ops);
        seconds
    }
}

/// Transport backed by the [`flowsim`] fluid engine: each step becomes one
/// batch of flows run to completion under max–min fair sharing on the
/// network spec, so NIC and backbone contention shape the step duration.
/// Slowdowns run the step on [`NetworkSpec::scaled`]`(1/s)`.
///
/// The engine is deterministic, so delivering the ops and shaping the last
/// estimate simulated reuses that makespan: the runtime's estimate-then-
/// deliver of a step runs the engine once.
#[derive(Debug, Clone)]
pub struct SimTransport {
    spec: NetworkSpec,
    config: SimConfig,
    ledger: TrafficMatrix,
    /// The last step simulated, its shaping and its makespan.
    last: Option<(Vec<TransferOp>, StepFaults, f64)>,
}

impl SimTransport {
    /// A simulated transport over `spec` with the given engine config.
    pub fn new(spec: NetworkSpec, config: SimConfig) -> Self {
        let ledger = TrafficMatrix::zeros(spec.senders(), spec.receivers());
        SimTransport {
            spec,
            config,
            ledger,
            last: None,
        }
    }

    /// A simulated transport for a [`Platform`] with default engine config.
    pub fn for_platform(p: &Platform) -> Self {
        SimTransport::new(NetworkSpec::from_platform(p), SimConfig::default())
    }

    /// A simulated transport for a heterogeneous [`Topology`] with default
    /// engine config. Fails when the topology does not validate.
    pub fn for_topology(topo: &Topology) -> Result<Self, String> {
        Ok(SimTransport::new(
            NetworkSpec::from_topology(topo)?,
            SimConfig::default(),
        ))
    }

    /// The network spec under `faults`: every capacity scaled by
    /// `1/slowdown`, then each faulted sender/receiver NIC and backbone
    /// link divided by its factor. The uniform path takes the exact legacy
    /// [`NetworkSpec::scaled`] route, so fault-free and slowdown-only runs
    /// stay byte-identical to the scalar API.
    fn faulted_spec(&self, faults: &StepFaults) -> NetworkSpec {
        let mut spec = self.spec.scaled(1.0 / faults.slowdown);
        if faults.is_uniform() {
            return spec;
        }
        for (i, cap) in spec.nic_out.iter_mut().enumerate() {
            *cap /= faults.sender_factor(i);
        }
        for (j, cap) in spec.nic_in.iter_mut().enumerate() {
            *cap /= faults.receiver_factor(j);
        }
        for (l, &factor) in faults.link_factors.iter().enumerate() {
            if factor != 1.0 && l < spec.num_links() {
                let degraded = spec.link_profile(l).scaled(1.0 / factor);
                if l == 0 {
                    spec.backbone = degraded;
                } else {
                    spec.extra_links[l - 1] = degraded;
                }
            }
        }
        spec
    }
}

impl Transport for SimTransport {
    fn estimate(&mut self, ops: &[TransferOp], slowdown: f64) -> f64 {
        self.estimate_faulted(ops, &StepFaults::uniform(slowdown))
    }

    fn deliver(&mut self, ops: &[TransferOp], slowdown: f64) -> f64 {
        self.deliver_faulted(ops, &StepFaults::uniform(slowdown))
    }

    fn delivered(&self) -> &TrafficMatrix {
        &self.ledger
    }

    fn estimate_faulted(&mut self, ops: &[TransferOp], faults: &StepFaults) -> f64 {
        if ops.is_empty() {
            return 0.0;
        }
        let flows: Vec<Flow> = ops
            .iter()
            .map(|op| Flow::new(op.src, op.dst, op.bytes as f64))
            .collect();
        let spec = self.faulted_spec(faults);
        let makespan = Engine::new(spec, self.config.clone()).run(&flows).makespan;
        self.last = Some((ops.to_vec(), faults.clone(), makespan));
        makespan
    }

    fn deliver_faulted(&mut self, ops: &[TransferOp], faults: &StepFaults) -> f64 {
        let seconds = match &self.last {
            Some((last_ops, last_faults, makespan)) if last_ops == ops && last_faults == faults => {
                *makespan
            }
            _ => self.estimate_faulted(ops, faults),
        };
        record(&mut self.ledger, ops);
        seconds
    }
}

/// Transport that moves every step's real bytes through an [`mpilite`]
/// [`World`]: one rank thread per node, synchronous sends shaped through
/// the fabric's token buckets, and every received buffer checked byte for
/// byte with [`mpilite::verify`] before it enters the ledger.
///
/// A call is one [`World::run`] on a fresh world: its alignment barrier and
/// the join of its rank threads are the step barrier, and its wall-clock
/// duration is what [`Transport::deliver`] returns. Each rank sends or
/// receives each of its ops on a thread of its own, so a node may appear in
/// several ops (the brute-force pattern: all connections open at once) and
/// the fabric arbitrates; a `(sender, receiver)` pair appears at most once. Slowdowns run the call on a fabric whose rates are
/// scaled by `1/s`. [`Transport::estimate`] is the analytic 1-port time at
/// the slower NIC rate, as in [`LoopbackTransport`].
#[derive(Debug, Clone)]
pub struct MpiTransport {
    fabric: FabricConfig,
    /// Analytic timing and the delivery ledger.
    analytic: LoopbackTransport,
}

impl MpiTransport {
    /// A threaded transport for an `n1 × n2` platform over `fabric`.
    pub fn new(n1: usize, n2: usize, fabric: FabricConfig) -> Self {
        let rate = fabric.out_bytes_per_s.min(fabric.in_bytes_per_s);
        MpiTransport {
            fabric,
            analytic: LoopbackTransport::new(n1, n2, rate),
        }
    }
}

impl Transport for MpiTransport {
    fn estimate(&mut self, ops: &[TransferOp], slowdown: f64) -> f64 {
        self.analytic.estimate(ops, slowdown)
    }

    /// # Panics
    ///
    /// Panics when a buffer arrives truncated or corrupted.
    fn deliver(&mut self, ops: &[TransferOp], slowdown: f64) -> f64 {
        let ledger = self.analytic.delivered();
        let (senders, receivers) = (ledger.senders(), ledger.receivers());
        let f = self.fabric;
        let world = World::new(WorldConfig {
            senders,
            receivers,
            fabric: FabricConfig {
                out_bytes_per_s: f.out_bytes_per_s / slowdown,
                in_bytes_per_s: f.in_bytes_per_s / slowdown,
                backbone_bytes_per_s: f.backbone_bytes_per_s / slowdown,
                ..f
            },
        });
        let elapsed = world.run(|comm| {
            let rank = comm.rank();
            std::thread::scope(|scope| {
                for &op in ops {
                    match rank {
                        Rank::Sender(s) if s == op.src => {
                            scope.spawn(move || {
                                comm.send(op.dst, mpilite::payload(s, op.dst, op.bytes))
                            });
                        }
                        Rank::Receiver(d) if d == op.dst => {
                            scope.spawn(move || {
                                mpilite::verify(&comm.recv(op.src), op.src, d, op.bytes)
                            });
                        }
                        _ => {}
                    }
                }
            });
        });
        self.analytic.deliver(ops, slowdown);
        elapsed.as_secs_f64()
    }

    fn delivered(&self) -> &TrafficMatrix {
        self.analytic.delivered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_timing_is_largest_op() {
        // 12.5 MB/s; ops of 25 MB and 12.5 MB in parallel → 2 s.
        let mut t = LoopbackTransport::new(2, 2, 12.5e6);
        let ops = [
            TransferOp {
                src: 0,
                dst: 0,
                bytes: 25_000_000,
            },
            TransferOp {
                src: 1,
                dst: 1,
                bytes: 12_500_000,
            },
        ];
        assert!((t.estimate(&ops, 1.0) - 2.0).abs() < 1e-9);
        assert!((t.estimate(&ops, 4.0) - 8.0).abs() < 1e-9, "slowdown ×4");
        let secs = t.deliver(&ops, 1.0);
        assert!((secs - 2.0).abs() < 1e-9);
        assert_eq!(t.delivered().get(0, 0), 25_000_000);
        assert_eq!(t.delivered().get(1, 1), 12_500_000);
        assert_eq!(t.delivered().get(0, 1), 0);
    }

    #[test]
    fn loopback_ledger_accumulates() {
        let mut t = LoopbackTransport::new(1, 1, 1e6);
        let op = [TransferOp {
            src: 0,
            dst: 0,
            bytes: 500,
        }];
        t.deliver(&op, 1.0);
        t.deliver(&op, 1.0);
        assert_eq!(t.delivered().get(0, 0), 1000);
    }

    #[test]
    fn loopback_empty_step_is_instant() {
        let mut t = LoopbackTransport::new(1, 1, 1e6);
        assert_eq!(t.estimate(&[], 1.0), 0.0);
        assert_eq!(t.deliver(&[], 2.0), 0.0);
    }

    #[test]
    fn sim_transport_matches_loopback_when_uncontended() {
        // One 25 MB flow on 100 Mbit/s NICs and ample backbone: both
        // transports see 2 s.
        let p = Platform::new(2, 2, 100.0, 100.0, 1000.0);
        let mut sim = SimTransport::for_platform(&p);
        let mut loop_ = LoopbackTransport::for_platform(&p);
        let ops = [TransferOp {
            src: 0,
            dst: 1,
            bytes: 25_000_000,
        }];
        let a = sim.deliver(&ops, 1.0);
        let b = loop_.deliver(&ops, 1.0);
        assert!((a - b).abs() < 1e-6, "sim {a} vs loopback {b}");
        assert_eq!(sim.delivered().get(0, 1), 25_000_000);
    }

    #[test]
    fn loopback_nic_faults_stretch_only_the_faulted_op() {
        // 12.5 MB/s; two 12.5 MB ops. Sender 0 runs 3× slower → its op
        // takes 3 s while the other still takes 1 s; the step takes 3 s.
        let mut t = LoopbackTransport::new(2, 2, 12.5e6);
        let ops = [
            TransferOp {
                src: 0,
                dst: 0,
                bytes: 12_500_000,
            },
            TransferOp {
                src: 1,
                dst: 1,
                bytes: 12_500_000,
            },
        ];
        let faults = StepFaults {
            slowdown: 1.0,
            sender_factors: vec![3.0, 1.0],
            receiver_factors: Vec::new(),
            link_factors: vec![8.0], // no backbone on loopback: ignored
        };
        assert!((t.estimate_faulted(&ops, &faults) - 3.0).abs() < 1e-9);
        let uniform = StepFaults::uniform(2.0);
        assert!((t.estimate_faulted(&ops, &uniform) - 2.0).abs() < 1e-9);
        let secs = t.deliver_faulted(&ops, &faults);
        assert!((secs - 3.0).abs() < 1e-9);
        assert_eq!(t.delivered().get(0, 0), 12_500_000);
        assert_eq!(t.delivered().get(1, 1), 12_500_000);
    }

    #[test]
    fn sim_faulted_uniform_path_matches_scalar_api() {
        let p = Platform::new(3, 3, 100.0, 80.0, 250.0);
        let mut sim = SimTransport::for_platform(&p);
        let ops = [
            TransferOp {
                src: 0,
                dst: 1,
                bytes: 7_000_000,
            },
            TransferOp {
                src: 2,
                dst: 0,
                bytes: 3_000_000,
            },
        ];
        let scalar = sim.estimate(&ops, 2.5);
        let faulted = sim.estimate_faulted(&ops, &StepFaults::uniform(2.5));
        assert_eq!(scalar, faulted, "uniform shaping must be byte-identical");
    }

    #[test]
    fn sim_nic_and_link_faults_shape_the_step() {
        // 100 Mbit/s NICs, ample backbone: a 12.5 MB op takes 1 s clean.
        let p = Platform::new(2, 2, 100.0, 100.0, 1000.0);
        let mut sim = SimTransport::for_platform(&p);
        let ops = [TransferOp {
            src: 0,
            dst: 1,
            bytes: 12_500_000,
        }];
        let clean = sim.estimate_faulted(&ops, &StepFaults::uniform(1.0));
        assert!((clean - 1.0).abs() < 1e-6);

        // Receiver 1's NIC at 4× slower → 4 s.
        let nic = StepFaults {
            slowdown: 1.0,
            sender_factors: Vec::new(),
            receiver_factors: vec![1.0, 4.0],
            link_factors: Vec::new(),
        };
        let slowed = sim.estimate_faulted(&ops, &nic);
        assert!((slowed - 4.0).abs() < 1e-6, "got {slowed}");

        // Backbone degraded 20× (1000 → 50 Mbit/s) → 2 s.
        let link = StepFaults {
            slowdown: 1.0,
            sender_factors: Vec::new(),
            receiver_factors: Vec::new(),
            link_factors: vec![20.0],
        };
        let degraded = sim.estimate_faulted(&ops, &link);
        assert!((degraded - 2.0).abs() < 1e-6, "got {degraded}");
    }

    #[test]
    fn sim_for_topology_routes_links_independently() {
        // Two disjoint cluster pairs with their own backbones: a flow on
        // the slow link does not contend with one on the fast link.
        let topo = kpbs::instances::two_backbone_topology(1, 100.0, 100.0, 1000.0, 50.0);
        let mut sim = SimTransport::for_topology(&topo).expect("valid topology");
        let ops = [
            TransferOp {
                src: 0,
                dst: 0,
                bytes: 12_500_000,
            },
            TransferOp {
                src: 1,
                dst: 1,
                bytes: 12_500_000,
            },
        ];
        // Fast-link op: NIC-bound at 100 Mbit/s → 1 s. Slow-link op:
        // link-bound at 50 Mbit/s → 2 s. Makespan 2 s, not the ~3 s a
        // shared 50 Mbit/s pipe would give.
        let secs = sim.deliver_faulted(&ops, &StepFaults::uniform(1.0));
        assert!((secs - 2.0).abs() < 1e-6, "got {secs}");

        let bad = Topology::two_cluster(2, 2, 0.0, 100.0, 100.0);
        assert!(SimTransport::for_topology(&bad).is_err());
    }

    #[test]
    fn sim_slowdown_scales_linearly() {
        let p = Platform::new(2, 2, 100.0, 100.0, 150.0);
        let mut sim = SimTransport::for_platform(&p);
        let ops = [
            TransferOp {
                src: 0,
                dst: 0,
                bytes: 10_000_000,
            },
            TransferOp {
                src: 1,
                dst: 1,
                bytes: 10_000_000,
            },
        ];
        let base = sim.estimate(&ops, 1.0);
        let slowed = sim.estimate(&ops, 3.0);
        assert!(
            (slowed - 3.0 * base).abs() < 1e-6 * base.max(1.0),
            "max–min fairness scales linearly under uniform capacity scaling"
        );
    }

    #[test]
    fn sim_deliver_reuses_the_preceding_estimate() {
        use telemetry::counters::{self, Counter};
        let p = Platform::new(2, 2, 100.0, 100.0, 150.0);
        let mut sim = SimTransport::for_platform(&p);
        let ops = [
            TransferOp {
                src: 0,
                dst: 0,
                bytes: 10_000_000,
            },
            TransferOp {
                src: 1,
                dst: 1,
                bytes: 4_000_000,
            },
        ];
        let faults = StepFaults::uniform(2.0);
        counters::enable();
        let events = |f: &mut dyn FnMut() -> f64| {
            let before = counters::local_snapshot();
            let secs = f();
            (
                secs,
                counters::local_snapshot()
                    .delta(&before)
                    .get(Counter::FlowsimEvents),
            )
        };
        let (estimated, ran) = events(&mut || sim.estimate_faulted(&ops, &faults));
        let (delivered, reran) = events(&mut || sim.deliver_faulted(&ops, &faults));
        // Other shaping, or other ops, is a step of its own.
        let (_, shaped) = events(&mut || sim.deliver_faulted(&ops, &StepFaults::uniform(1.0)));
        let (_, fewer) = events(&mut || sim.deliver_faulted(&ops[..1], &StepFaults::uniform(1.0)));
        counters::disable();
        counters::take_local();
        assert!(ran > 0);
        assert_eq!(reran, 0, "deliver re-simulated the estimated step");
        assert_eq!(delivered, estimated);
        assert!(shaped > 0 && fewer > 0);
        assert_eq!(sim.delivered().get(0, 0), 30_000_000);
        assert_eq!(sim.delivered().get(1, 1), 8_000_000);
    }

    fn fast_fabric() -> FabricConfig {
        FabricConfig {
            out_bytes_per_s: 2e9,
            in_bytes_per_s: 2e9,
            backbone_bytes_per_s: 2e9,
            chunk_bytes: 64 * 1024,
        }
    }

    #[test]
    fn mpi_transport_moves_and_ledgers_real_bytes() {
        // Keep volumes small: these move real bytes through real threads.
        let mut mpi = MpiTransport::new(3, 2, fast_fabric());
        let ops = [
            TransferOp {
                src: 2,
                dst: 0,
                bytes: 30_000,
            },
            TransferOp {
                src: 0,
                dst: 1,
                bytes: 10_000,
            },
        ];
        // Analytic estimate: the largest op at the NIC rate, stretched.
        assert!((mpi.estimate(&ops, 3.0) - 30_000.0 / 2e9 * 3.0).abs() < 1e-15);
        let secs = mpi.deliver(&ops, 1.0);
        assert!(secs > 0.0);
        mpi.deliver(&ops[1..], 2.0);
        assert_eq!(mpi.delivered().get(2, 0), 30_000);
        assert_eq!(mpi.delivered().get(0, 1), 20_000);
        assert_eq!(mpi.delivered().total_bytes(), 50_000);
    }

    #[test]
    fn mpi_transport_delivers_ops_that_share_a_sender_and_a_receiver() {
        // Sender 0 sends twice and receiver 0 receives twice in one call:
        // each op runs on its own thread, every buffer is verified on
        // arrival, and the ledger carries every op.
        let mut mpi = MpiTransport::new(2, 2, fast_fabric());
        let ops = [
            TransferOp {
                src: 0,
                dst: 0,
                bytes: 20_000,
            },
            TransferOp {
                src: 0,
                dst: 1,
                bytes: 5_000,
            },
            TransferOp {
                src: 1,
                dst: 0,
                bytes: 12_000,
            },
        ];
        let secs = mpi.deliver(&ops, 1.0);
        assert!(secs > 0.0);
        assert_eq!(mpi.delivered().get(0, 0), 20_000);
        assert_eq!(mpi.delivered().get(0, 1), 5_000);
        assert_eq!(mpi.delivered().get(1, 0), 12_000);
        assert_eq!(mpi.delivered().get(1, 1), 0);
        assert_eq!(mpi.delivered().total_bytes(), 37_000);
    }

    #[test]
    fn brute_force_delivers_every_byte() {
        // Keep volumes small: these move real bytes through real threads.
        let mut traffic = TrafficMatrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                traffic.set(i, j, 10_000 + ((i * 4 + j) as u64 + 3) * 1000);
            }
        }
        let mut mpi = MpiTransport::new(4, 4, fast_fabric());
        let secs = crate::brute_force(&mut mpi, &traffic);
        assert!(secs > 0.0);
        assert_eq!(mpi.delivered().total_bytes(), traffic.total_bytes());
    }

    #[test]
    fn sparse_traffic_supported() {
        let mut traffic = TrafficMatrix::zeros(3, 3);
        traffic.set(0, 2, 5000);
        traffic.set(2, 0, 7000);
        let mut mpi = MpiTransport::new(3, 3, fast_fabric());
        crate::brute_force(&mut mpi, &traffic);
        assert_eq!(mpi.delivered().total_bytes(), 12_000);
    }

    #[test]
    fn brute_force_with_ideal_tcp_equals_volume_over_backbone() {
        // Ideal fluid transport: the backbone is the only binding
        // constraint of the saturated testbed, so the makespan is close to
        // total volume / backbone (equal shares drain messages together,
        // freeing capacity for the rest).
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let traffic = TrafficMatrix::uniform_mb(&mut rng, 10, 10, 10, 20);
        let sim = SimTransport::for_platform(&Platform::testbed(3));
        let seconds = crate::brute_force(sim, &traffic);
        let volume_bytes = traffic.total_bytes() as f64;
        let floor = volume_bytes / (100.0 * 1e6 / 8.0);
        assert!(seconds >= floor * 0.999);
        assert!(seconds <= floor * 1.25, "brute {seconds} vs floor {floor}");
    }
}
