//! The brute-force arm on the threaded runtime, and the payload check
//! every real-byte run shares.
//!
//! [`run_brute_force`] is the paper's TCP arm (Section 5.2): every sender
//! opens all its connections at once (one helper thread per destination)
//! and the shaped fabric sorts out the contention. Scheduled runs execute
//! through `redistexec::Runtime` over its `MpiTransport`, which moves each
//! step through a [`World`] with the same [`payload`]s and [`verify`].
//!
//! Every received buffer is integrity-checked byte for byte (length and
//! fill pattern), so these runs double as end-to-end correctness tests: a
//! 1-port violation would deadlock, a coverage error would corrupt counts.

use crate::comm::{Rank, World, WorldConfig};
use crate::fabric::FabricConfig;
use kpbs::TrafficMatrix;
use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of a brute-force run.
#[derive(Debug, Clone, Copy)]
pub struct RunnerReport {
    /// Measured wall-clock duration of the redistribution.
    pub seconds: f64,
    /// Total bytes delivered and verified.
    pub bytes_moved: u64,
}

/// Deterministic fill byte for a message, so receivers can verify payloads.
fn fill_byte(src: usize, dst: usize) -> u8 {
    (src.wrapping_mul(31).wrapping_add(dst.wrapping_mul(17)) % 251) as u8
}

/// The `bytes`-long buffer sender `src` sends to receiver `dst`: every byte
/// is the pair's fill byte, so [`verify`] can check it on arrival.
pub fn payload(src: usize, dst: usize, bytes: u64) -> Vec<u8> {
    vec![fill_byte(src, dst); bytes as usize]
}

/// Checks that `buf` is exactly the [`payload`] of `src → dst` with
/// `expected_len` bytes.
///
/// # Panics
///
/// Panics naming the pair when the length or any byte differs.
pub fn verify(buf: &[u8], src: usize, dst: usize, expected_len: u64) {
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
                            comm.send(d, payload(s, d, b));
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_fabric() -> FabricConfig {
        FabricConfig {
            out_bytes_per_s: 2e9,
            in_bytes_per_s: 2e9,
            backbone_bytes_per_s: 2e9,
            chunk_bytes: 64 * 1024,
        }
    }

    #[test]
    #[should_panic(expected = "message 1->2 corrupted")]
    fn verify_catches_a_wrong_middle_byte() {
        let mut buf = payload(1, 2, 9);
        buf[4] ^= 1;
        verify(&buf, 1, 2, 9);
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
        let r = run_brute_force(&traffic, fast_fabric());
        assert_eq!(r.bytes_moved, traffic.total_bytes());
    }

    #[test]
    fn sparse_traffic_supported() {
        let mut traffic = TrafficMatrix::zeros(3, 3);
        traffic.set(0, 2, 5000);
        traffic.set(2, 0, 7000);
        let r = run_brute_force(&traffic, fast_fabric());
        assert_eq!(r.bytes_moved, 12_000);
    }
}
