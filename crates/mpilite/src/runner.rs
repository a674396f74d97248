//! Executes redistributions on the threaded runtime and measures wall-clock
//! time — the in-process analogue of the paper's MPICH experiments.
//!
//! Two modes, matching Section 5.2:
//!
//! * [`run_schedule`] — the scheduled arm: communication proceeds in steps
//!   synchronised by a global barrier; within a step each sender performs at
//!   most one synchronous send.
//! * [`run_brute_force`] — the TCP arm: every sender opens all its
//!   connections at once (one helper thread per destination) and the shaped
//!   fabric sorts out the contention.
//!
//! Every received buffer is integrity-checked (length and fill pattern), so
//! these runs double as end-to-end correctness tests of the scheduler: a
//! 1-port violation would deadlock, a coverage error would corrupt counts.

use crate::comm::{Rank, World, WorldConfig};
use crate::fabric::FabricConfig;
use kpbs::{Instance, Schedule, TrafficMatrix};
use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of a runtime execution.
#[derive(Debug, Clone, Copy)]
pub struct RunnerReport {
    /// Measured wall-clock duration of the redistribution.
    pub seconds: f64,
    /// Total bytes delivered and verified.
    pub bytes_moved: u64,
    /// Number of barrier-separated steps (0 for brute force).
    pub steps: usize,
}

/// Deterministic fill byte for a message, so receivers can verify payloads.
fn fill_byte(src: usize, dst: usize) -> u8 {
    (src.wrapping_mul(31).wrapping_add(dst.wrapping_mul(17)) % 251) as u8
}

fn verify(buf: &[u8], src: usize, dst: usize, expected_len: u64) {
    assert_eq!(
        buf.len() as u64,
        expected_len,
        "message {src}->{dst} truncated"
    );
    let fill = fill_byte(src, dst);
    assert!(
        buf.iter().all(|&b| b == fill),
        "message {src}->{dst} corrupted"
    );
}

/// Executes `schedule` over the threaded runtime. `inst` and `endpoints`
/// must come from the [`TrafficMatrix::to_instance`] call that produced the
/// schedule.
pub fn run_schedule(
    traffic: &TrafficMatrix,
    inst: &Instance,
    endpoints: &[(usize, usize)],
    schedule: &Schedule,
    fabric: FabricConfig,
) -> RunnerReport {
    let _span = telemetry::span("mpilite.run_schedule");
    let bytes: Vec<u64> = endpoints.iter().map(|&(s, d)| traffic.get(s, d)).collect();
    let slices = schedule.byte_slices(inst, &bytes);
    let n_steps = slices.len();

    // Per-step scripts: what each sender sends / receiver expects.
    let senders = traffic.senders();
    let receivers = traffic.receivers();
    let mut send_script: Vec<Vec<Option<(usize, u64)>>> = vec![vec![None; senders]; n_steps];
    let mut recv_script: Vec<Vec<Option<(usize, u64)>>> = vec![vec![None; receivers]; n_steps];
    for (step, slice) in slices.iter().enumerate() {
        for &(e, b) in slice {
            let (s, d) = endpoints[e.index()];
            assert!(
                send_script[step][s].is_none() && recv_script[step][d].is_none(),
                "schedule step {step} violates the 1-port model"
            );
            send_script[step][s] = Some((d, b));
            recv_script[step][d] = Some((s, b));
        }
    }

    let world = World::new(WorldConfig {
        senders,
        receivers,
        fabric,
    });
    let moved = AtomicU64::new(0);
    let elapsed = world.run(|comm| {
        for step in 0..n_steps {
            match comm.rank() {
                Rank::Sender(s) => {
                    if let Some((d, b)) = send_script[step][s] {
                        comm.send(d, vec![fill_byte(s, d); b as usize]);
                    }
                }
                Rank::Receiver(d) => {
                    if let Some((s, b)) = recv_script[step][d] {
                        let buf = comm.recv(s);
                        verify(&buf, s, d, b);
                        moved.fetch_add(b, Ordering::Relaxed);
                    }
                }
            }
            comm.barrier();
        }
    });
    RunnerReport {
        seconds: elapsed.as_secs_f64(),
        bytes_moved: moved.load(Ordering::Relaxed),
        steps: n_steps,
    }
}

/// Executes the brute-force pattern: all messages at once, the transport
/// (here: the shaped fabric) left to arbitrate.
pub fn run_brute_force(traffic: &TrafficMatrix, fabric: FabricConfig) -> RunnerReport {
    let _span = telemetry::span("mpilite.run_brute_force");
    let senders = traffic.senders();
    let receivers = traffic.receivers();
    let world = World::new(WorldConfig {
        senders,
        receivers,
        fabric,
    });
    let moved = AtomicU64::new(0);
    let elapsed = world.run(|comm| match comm.rank() {
        Rank::Sender(s) => {
            // One helper thread per destination: all connections at once.
            std::thread::scope(|scope| {
                for d in 0..receivers {
                    let b = traffic.get(s, d);
                    if b > 0 {
                        let comm = &comm;
                        scope.spawn(move || {
                            comm.send(d, vec![fill_byte(s, d); b as usize]);
                        });
                    }
                }
            });
        }
        Rank::Receiver(d) => {
            std::thread::scope(|scope| {
                for s in 0..senders {
                    let b = traffic.get(s, d);
                    if b > 0 {
                        let comm = &comm;
                        let moved = &moved;
                        scope.spawn(move || {
                            let buf = comm.recv(s);
                            verify(&buf, s, d, b);
                            moved.fetch_add(b, Ordering::Relaxed);
                        });
                    }
                }
            });
        }
    });
    RunnerReport {
        seconds: elapsed.as_secs_f64(),
        bytes_moved: moved.load(Ordering::Relaxed),
        steps: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpbs::traffic::TickScale;
    use kpbs::{ggp, oggp, Platform};

    fn fast_fabric() -> FabricConfig {
        FabricConfig {
            out_bytes_per_s: 2e9,
            in_bytes_per_s: 2e9,
            backbone_bytes_per_s: 2e9,
            chunk_bytes: 64 * 1024,
        }
    }

    fn small_workload(salt: u64) -> (TrafficMatrix, Platform) {
        // Keep volumes small: these move real bytes through real threads.
        let mut traffic = TrafficMatrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                traffic.set(i, j, 10_000 + ((i * 4 + j) as u64 + salt) * 1000);
            }
        }
        (traffic, Platform::new(4, 4, 100.0, 100.0, 200.0))
    }

    #[test]
    #[should_panic(expected = "message 1->2 corrupted")]
    fn verify_catches_a_wrong_middle_byte() {
        let mut buf = vec![fill_byte(1, 2); 9];
        buf[4] ^= 1;
        verify(&buf, 1, 2, 9);
    }

    #[test]
    fn scheduled_run_delivers_every_byte() {
        let (traffic, platform) = small_workload(1);
        let (inst, endpoints) = traffic.to_instance(&platform, 0.0, TickScale::MILLIS);
        let schedule = oggp(&inst);
        schedule.validate(&inst).unwrap();
        let r = run_schedule(&traffic, &inst, &endpoints, &schedule, fast_fabric());
        assert_eq!(r.bytes_moved, traffic.total_bytes());
        assert_eq!(r.steps, schedule.num_steps());
        assert!(r.seconds > 0.0);
    }

    #[test]
    fn ggp_schedule_also_runs() {
        let (traffic, platform) = small_workload(2);
        let (inst, endpoints) = traffic.to_instance(&platform, 0.0, TickScale::MILLIS);
        let schedule = ggp(&inst);
        let r = run_schedule(&traffic, &inst, &endpoints, &schedule, fast_fabric());
        assert_eq!(r.bytes_moved, traffic.total_bytes());
    }

    #[test]
    fn scheduled_run_counts_barrier_waits() {
        use telemetry::counters::{self, Counter};
        let (traffic, platform) = small_workload(5);
        let (inst, endpoints) = traffic.to_instance(&platform, 0.0, TickScale::MILLIS);
        let schedule = oggp(&inst);
        // Counters are process-global and other tests run concurrently, so
        // assert with >= on a global delta.
        counters::enable();
        let before = counters::global_snapshot();
        let r = run_schedule(&traffic, &inst, &endpoints, &schedule, fast_fabric());
        let delta = counters::global_snapshot().delta(&before);
        counters::disable();
        // Every rank waits on the barrier once per step.
        let parties = (traffic.senders() + traffic.receivers()) as u64;
        assert!(
            delta.get(Counter::BarrierWaits) >= parties * r.steps as u64,
            "expected >= {} barrier waits, got {delta:?}",
            parties * r.steps as u64
        );
    }

    #[test]
    fn brute_force_delivers_every_byte() {
        let (traffic, _) = small_workload(3);
        let r = run_brute_force(&traffic, fast_fabric());
        assert_eq!(r.bytes_moved, traffic.total_bytes());
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn sparse_traffic_supported() {
        let mut traffic = TrafficMatrix::zeros(3, 3);
        traffic.set(0, 2, 5000);
        traffic.set(2, 0, 7000);
        let platform = Platform::new(3, 3, 100.0, 100.0, 200.0);
        let (inst, endpoints) = traffic.to_instance(&platform, 0.0, TickScale::MILLIS);
        let schedule = oggp(&inst);
        let r = run_schedule(&traffic, &inst, &endpoints, &schedule, fast_fabric());
        assert_eq!(r.bytes_moved, 12_000);
        let rb = run_brute_force(&traffic, fast_fabric());
        assert_eq!(rb.bytes_moved, 12_000);
    }

    #[test]
    fn shaped_fabric_slows_transfers() {
        // Same workload, 100× slower fabric → measurably longer run.
        let (traffic, platform) = small_workload(4);
        let (inst, endpoints) = traffic.to_instance(&platform, 0.0, TickScale::MILLIS);
        let schedule = oggp(&inst);
        let fast = run_schedule(&traffic, &inst, &endpoints, &schedule, fast_fabric());
        let slow_cfg = FabricConfig {
            out_bytes_per_s: 2e6,
            in_bytes_per_s: 2e6,
            backbone_bytes_per_s: 4e6,
            chunk_bytes: 16 * 1024,
        };
        let slow = run_schedule(&traffic, &inst, &endpoints, &schedule, slow_cfg);
        assert!(
            slow.seconds > fast.seconds,
            "shaping had no effect: fast {} slow {}",
            fast.seconds,
            slow.seconds
        );
    }
}
