//! Ranks, the world, and point-to-point communication.
//!
//! A [`World`] spawns one OS thread per rank: `senders` ranks in cluster
//! `C1` and `receivers` ranks in cluster `C2`. [`Comm::send`] is
//! *synchronous* (rendezvous, like `MPI_Ssend`): the payload is first shaped
//! through the [`Fabric`] token buckets and the call
//! returns only when the receiver has accepted the message.

use crate::barrier::Barrier;
use crate::fabric::{Fabric, FabricConfig};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Mutex, PoisonError};

/// Identity of a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rank {
    /// Node `i` of the sending cluster `C1`.
    Sender(usize),
    /// Node `j` of the receiving cluster `C2`.
    Receiver(usize),
}

/// World construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorldConfig {
    /// Nodes in `C1`.
    pub senders: usize,
    /// Nodes in `C2`.
    pub receivers: usize,
    /// Fabric bandwidths.
    pub fabric: FabricConfig,
}

struct Shared {
    fabric: Fabric,
    barrier: Barrier,
    // channels[s][d]: rendezvous channel sender s → receiver d. A
    // `Receiver` is not `Sync`, so each sits behind its own lock; only the
    // one thread receiving from `s` on behalf of `d` ever takes it.
    tx: Vec<Vec<SyncSender<Vec<u8>>>>,
    rx: Vec<Vec<Mutex<Receiver<Vec<u8>>>>>,
    senders: usize,
    receivers: usize,
}

/// The set of ranks plus the fabric connecting them.
///
/// ```
/// use mpilite::{FabricConfig, Rank, World, WorldConfig};
///
/// let world = World::new(WorldConfig {
///     senders: 1,
///     receivers: 1,
///     fabric: FabricConfig {
///         out_bytes_per_s: 1e9,
///         in_bytes_per_s: 1e9,
///         backbone_bytes_per_s: 1e9,
///         chunk_bytes: 64 * 1024,
///     },
/// });
/// world.run(|comm| match comm.rank() {
///     Rank::Sender(0) => comm.send(0, b"hello".to_vec()),
///     Rank::Receiver(0) => assert_eq!(&comm.recv(0)[..], b"hello"),
///     _ => unreachable!(),
/// });
/// ```
pub struct World {
    shared: Shared,
}

impl World {
    /// Builds a world (no threads yet; they start in [`World::run`]).
    pub fn new(config: WorldConfig) -> Self {
        assert!(config.senders >= 1 && config.receivers >= 1);
        let mut tx = Vec::with_capacity(config.senders);
        let mut rx = Vec::with_capacity(config.senders);
        for _ in 0..config.senders {
            let mut trow = Vec::with_capacity(config.receivers);
            let mut rrow = Vec::with_capacity(config.receivers);
            for _ in 0..config.receivers {
                // Capacity 0 = rendezvous: send blocks until recv.
                let (t, r) = sync_channel(0);
                trow.push(t);
                rrow.push(Mutex::new(r));
            }
            tx.push(trow);
            rx.push(rrow);
        }
        World {
            shared: Shared {
                fabric: Fabric::new(config.senders, config.receivers, &config.fabric),
                barrier: Barrier::new(config.senders + config.receivers),
                tx,
                rx,
                senders: config.senders,
                receivers: config.receivers,
            },
        }
    }

    /// Runs `f` once per rank, each on its own thread, and returns the
    /// wall-clock duration from the moment all ranks were released to the
    /// moment the last one finished (the paper's measured redistribution
    /// time).
    pub fn run<F>(&self, f: F) -> std::time::Duration
    where
        F: Fn(&Comm) + Send + Sync,
    {
        let shared = &self.shared;
        let start = std::time::Instant::now();
        let ranks = (0..shared.senders)
            .map(Rank::Sender)
            .chain((0..shared.receivers).map(Rank::Receiver));
        std::thread::scope(|scope| {
            for rank in ranks {
                let f = &f;
                scope.spawn(move || {
                    let comm = Comm { rank, shared };
                    // Align all ranks before doing timed work.
                    comm.barrier();
                    f(&comm);
                    // The scope returns once `f` has, not once this
                    // thread's TLS destructors have flushed its counters.
                    telemetry::counters::flush_local();
                });
            }
        });
        start.elapsed()
    }
}

/// A rank's handle on the world. `Sync`: brute-force senders share it across
/// helper threads to open concurrent connections.
pub struct Comm<'w> {
    rank: Rank,
    shared: &'w Shared,
}

impl Comm<'_> {
    /// This rank's identity.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of sender ranks.
    pub fn senders(&self) -> usize {
        self.shared.senders
    }

    /// Number of receiver ranks.
    pub fn receivers(&self) -> usize {
        self.shared.receivers
    }

    /// Synchronously sends `data` to receiver `dst`: shapes the bytes
    /// through the fabric, then hands the buffer over (blocking until the
    /// receiver accepts it).
    ///
    /// # Panics
    ///
    /// Panics when called from a receiver rank (receivers have no uplink in
    /// the model) or when `dst` is out of range.
    pub fn send(&self, dst: usize, data: Vec<u8>) {
        let src = match self.rank {
            Rank::Sender(s) => s,
            Rank::Receiver(_) => panic!("receiver ranks cannot send"),
        };
        self.shared.fabric.transmit(src, dst, data.len());
        self.shared.tx[src][dst]
            .send(data)
            .expect("receiver hung up");
    }

    /// Receives the next message from sender `src` (blocking).
    ///
    /// # Panics
    ///
    /// Panics when called from a sender rank or when `src` is out of range.
    pub fn recv(&self, src: usize) -> Vec<u8> {
        let dst = match self.rank {
            Rank::Receiver(d) => d,
            Rank::Sender(_) => panic!("sender ranks cannot receive"),
        };
        self.shared.rx[src][dst]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv()
            .expect("sender hung up")
    }

    /// Global barrier across every rank of the world.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_fabric() -> FabricConfig {
        FabricConfig {
            out_bytes_per_s: 1e9,
            in_bytes_per_s: 1e9,
            backbone_bytes_per_s: 1e9,
            chunk_bytes: 64 * 1024,
        }
    }

    #[test]
    fn point_to_point_delivery() {
        let world = World::new(WorldConfig {
            senders: 1,
            receivers: 1,
            fabric: fast_fabric(),
        });
        world.run(|comm| match comm.rank() {
            Rank::Sender(0) => comm.send(0, vec![7u8; 1024]),
            Rank::Receiver(0) => {
                let m = comm.recv(0);
                assert_eq!(m.len(), 1024);
                assert!(m.iter().all(|&b| b == 7));
            }
            _ => unreachable!(),
        });
    }

    #[test]
    fn all_to_all_delivery() {
        let n = 4;
        let world = World::new(WorldConfig {
            senders: n,
            receivers: n,
            fabric: fast_fabric(),
        });
        world.run(|comm| match comm.rank() {
            Rank::Sender(s) => {
                for d in 0..n {
                    comm.send(d, vec![(s * n + d) as u8; 256]);
                }
            }
            Rank::Receiver(d) => {
                for s in 0..n {
                    let m = comm.recv(s);
                    assert!(m.iter().all(|&b| b == (s * n + d) as u8));
                }
            }
        });
    }

    #[test]
    fn barrier_steps_synchronise() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let world = World::new(WorldConfig {
            senders: 2,
            receivers: 2,
            fabric: fast_fabric(),
        });
        let counter = AtomicUsize::new(0);
        world.run(|comm| {
            for step in 0..5 {
                counter.fetch_add(1, Ordering::SeqCst);
                comm.barrier();
                assert!(counter.load(Ordering::SeqCst) >= 4 * (step + 1));
                comm.barrier();
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn send_is_rendezvous() {
        // The sender cannot complete before the receiver posts its recv.
        use std::time::{Duration, Instant};
        let world = World::new(WorldConfig {
            senders: 1,
            receivers: 1,
            fabric: fast_fabric(),
        });
        let elapsed = world.run(|comm| match comm.rank() {
            Rank::Sender(0) => {
                comm.send(0, vec![1u8; 16]);
            }
            Rank::Receiver(0) => {
                std::thread::sleep(Duration::from_millis(60));
                let t0 = Instant::now();
                let _ = comm.recv(0);
                assert!(t0.elapsed() < Duration::from_millis(50));
            }
            _ => unreachable!(),
        });
        assert!(
            elapsed >= Duration::from_millis(55),
            "sender returned early"
        );
    }

    #[test]
    #[should_panic]
    fn receiver_cannot_send() {
        let world = World::new(WorldConfig {
            senders: 1,
            receivers: 1,
            fabric: fast_fabric(),
        });
        world.run(|comm| {
            if let Rank::Receiver(_) = comm.rank() {
                comm.send(0, b"x".to_vec());
            } else {
                let _ = comm.recv(0); // keep the pair symmetric: also panics
            }
        });
    }
}
