//! Token-bucket rate shaping — the `rshaper` stand-in.
//!
//! A bucket refills continuously at `rate` bytes/s up to a `burst` cap.
//! [`TokenBucket::acquire`] blocks the calling thread until the requested
//! tokens are available, which is how a kernel shaper delays a socket.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct State {
    tokens: f64,
    last_refill: Instant,
}

/// A thread-safe blocking token bucket.
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    state: Mutex<State>,
}

impl TokenBucket {
    /// Creates a bucket refilling at `rate_bytes_per_s`, holding at most
    /// `burst_bytes`, starting full.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    pub fn new(rate_bytes_per_s: f64, burst_bytes: f64) -> Self {
        assert!(rate_bytes_per_s > 0.0 && rate_bytes_per_s.is_finite());
        assert!(burst_bytes > 0.0 && burst_bytes.is_finite());
        TokenBucket {
            rate: rate_bytes_per_s,
            burst: burst_bytes,
            state: Mutex::new(State {
                tokens: burst_bytes,
                last_refill: Instant::now(),
            }),
        }
    }

    /// The bucket state. Every update leaves it valid, so a poisoned lock
    /// is recovered rather than turned into a panic.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The refill rate in bytes/s.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Blocks until `bytes` tokens are available, then consumes them.
    /// Requests larger than the burst are served in burst-sized gulps.
    pub fn acquire(&self, bytes: usize) {
        let mut need = bytes as f64;
        while need > 0.0 {
            let chunk = need.min(self.burst);
            self.acquire_chunk(chunk);
            need -= chunk;
        }
    }

    fn acquire_chunk(&self, chunk: f64) {
        loop {
            let wait = {
                let mut s = self.state();
                let now = Instant::now();
                let elapsed = now.duration_since(s.last_refill).as_secs_f64();
                s.tokens = (s.tokens + elapsed * self.rate).min(self.burst);
                s.last_refill = now;
                if s.tokens >= chunk {
                    s.tokens -= chunk;
                    return;
                }
                (chunk - s.tokens) / self.rate
            };
            // Sleep outside the lock so other threads can drain too.
            std::thread::sleep(Duration::from_secs_f64(wait.min(0.05)));
        }
    }

    /// Tokens currently available (refreshes the bucket; for tests).
    pub fn available(&self) -> f64 {
        let mut s = self.state();
        let now = Instant::now();
        let elapsed = now.duration_since(s.last_refill).as_secs_f64();
        s.tokens = (s.tokens + elapsed * self.rate).min(self.burst);
        s.last_refill = now;
        s.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn burst_served_immediately() {
        let b = TokenBucket::new(1000.0, 10_000.0);
        let t0 = Instant::now();
        b.acquire(5_000);
        assert!(t0.elapsed().as_secs_f64() < 0.1);
    }

    #[test]
    fn sustained_rate_enforced() {
        // 1 MB/s bucket with 10 KB burst: moving 60 KB beyond the burst
        // takes ≈ 50 ms.
        let b = TokenBucket::new(1_000_000.0, 10_000.0);
        let t0 = Instant::now();
        b.acquire(60_000);
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt >= 0.04, "finished too fast: {dt}s");
        assert!(dt < 0.5, "finished too slow: {dt}s");
    }

    #[test]
    fn concurrent_acquirers_share() {
        // Two threads drawing 30 KB each from a 1 MB/s bucket (10 KB burst):
        // total 60 KB → ≈ 50 ms wall-clock, not 100 (they interleave but the
        // bucket is the shared limit).
        let b = Arc::new(TokenBucket::new(1_000_000.0, 10_000.0));
        let t0 = Instant::now();
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let b = b.clone();
                std::thread::spawn(move || b.acquire(30_000))
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt >= 0.04, "too fast: {dt}");
        assert!(dt < 0.6, "too slow: {dt}");
    }

    #[test]
    fn oversized_request_chunked() {
        let b = TokenBucket::new(10_000_000.0, 1_000.0);
        // 100 KB through a 1 KB-burst bucket at 10 MB/s ≈ 10 ms.
        let t0 = Instant::now();
        b.acquire(100_000);
        assert!(t0.elapsed().as_secs_f64() < 1.0);
    }

    #[test]
    #[should_panic]
    fn invalid_rate_rejected() {
        TokenBucket::new(0.0, 1.0);
    }

    #[test]
    fn available_reports_refill() {
        let b = TokenBucket::new(1_000_000.0, 1_000.0);
        b.acquire(1_000);
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.available() > 0.0);
    }
}
