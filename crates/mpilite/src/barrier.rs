//! A reusable sense-reversing barrier built on a mutex + condvar, the
//! synchronisation separating communication steps (the paper's
//! `MPI_Barrier` between steps).

use std::sync::{Condvar, Mutex, PoisonError};
use telemetry::counters::{self, Counter};

struct State {
    waiting: usize,
    generation: u64,
}

/// A reusable barrier for a fixed number of participants.
pub struct Barrier {
    parties: usize,
    state: Mutex<State>,
    cvar: Condvar,
}

impl Barrier {
    /// Creates a barrier for `parties` threads.
    ///
    /// # Panics
    ///
    /// Panics if `parties == 0`.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one participant");
        Barrier {
            parties,
            state: Mutex::new(State {
                waiting: 0,
                generation: 0,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Number of participating threads.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Blocks until all `parties` threads have called `wait` for this
    /// generation. Returns `true` for exactly one "leader" thread per
    /// generation.
    pub fn wait(&self) -> bool {
        counters::incr(Counter::BarrierWaits);
        // Every update leaves the state valid, so a poisoned lock is
        // recovered rather than turned into a panic.
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let gen = s.generation;
        s.waiting += 1;
        if s.waiting == self.parties {
            s.waiting = 0;
            s.generation += 1;
            self.cvar.notify_all();
            true
        } else {
            while s.generation == gen {
                s = self.cvar.wait(s).unwrap_or_else(PoisonError::into_inner);
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_party_never_blocks() {
        let b = Barrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
    }

    #[test]
    fn synchronises_phases() {
        // No thread may enter phase p+1 before all finished phase p.
        let n = 8;
        let b = Arc::new(Barrier::new(n));
        let phase_count = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..n {
            let b = b.clone();
            let pc = phase_count.clone();
            handles.push(std::thread::spawn(move || {
                for phase in 0..20 {
                    pc.fetch_add(1, Ordering::SeqCst);
                    b.wait();
                    // After the barrier, all n increments of this phase are
                    // visible.
                    assert!(pc.load(Ordering::SeqCst) >= n * (phase + 1));
                    b.wait();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(phase_count.load(Ordering::SeqCst), n * 20);
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        let n = 4;
        let b = Arc::new(Barrier::new(n));
        let leaders = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..n {
            let b = b.clone();
            let l = leaders.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    if b.wait() {
                        l.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 50);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_parties_rejected() {
        Barrier::new(0);
    }
}
