//! The TCP behaviour model.
//!
//! The paper's brute-force baseline opens every connection at once and lets
//! TCP sort it out; measurements show it loses 5–20 % to the scheduled
//! approach and varies ±10 % between runs. The physical cause is per-flow
//! inefficiency at small rates: when a flow's fair share through the
//! `rshaper` token buckets is tiny, a fixed per-flow overhead (slow-start
//! after timeout, retransmissions, window floor) eats a larger fraction of
//! it. We model this as an efficiency factor
//!
//! ```text
//! effective_rate = r · r / (r + c)        (c = per-flow overhead, Mbit/s)
//! ```
//!
//! so a flow at `r ≫ c` loses almost nothing while a flow squeezed to
//! `r ≈ c` loses half. On top, flows that *share* a constraint (their
//! allocated rate is below their solo rate — i.e. the shaper is actually
//! dropping their packets) get a seeded multiplicative jitter, which makes
//! brute-force runs non-deterministic while leaving scheduled steps (one
//! flow per NIC, no sharing) exactly deterministic, as the paper observed.

use rand::Rng;

/// TCP inefficiency parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpModel {
    /// Per-flow overhead `c` in Mbit/s. 0 disables the efficiency loss.
    pub per_flow_overhead_mbps: f64,
    /// Relative jitter amplitude applied to *contended* flows: each rate
    /// recomputation multiplies their rate by `1 + U(−jitter, +jitter)`.
    pub jitter: f64,
}

impl Default for TcpModel {
    /// Calibrated so the k = 3 / k = 7 testbeds land in the paper's
    /// 5–20 % improvement band (see EXPERIMENTS.md).
    fn default() -> Self {
        TcpModel {
            per_flow_overhead_mbps: 0.25,
            jitter: 0.05,
        }
    }
}

impl TcpModel {
    /// An ideal transport: no overhead, no jitter (pure fluid model).
    pub fn ideal() -> Self {
        TcpModel {
            per_flow_overhead_mbps: 0.0,
            jitter: 0.0,
        }
    }

    /// Draws the run-level congestion bias: a single multiplicative factor
    /// `1 + U(−jitter, +jitter)` applied to every contended flow for the
    /// whole run. A per-event draw would average out over the hundreds of
    /// rate recomputations of a long redistribution; the run-level bias is
    /// what reproduces the paper's "up to 10 %" run-to-run variation
    /// (loss-recovery luck is correlated within a run: the same flows keep
    /// hitting the same shaper phase).
    pub fn draw_run_bias<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.jitter > 0.0 {
            1.0 + rng.gen_range(-self.jitter..=self.jitter)
        } else {
            1.0
        }
    }

    /// Effective rate of a flow allocated `rate_mbps`, whose uncontended
    /// solo rate would be `solo_mbps`. Contended flows (allocated below
    /// solo — i.e. the shaper is actually dropping their packets) are
    /// additionally scaled by the run-level `bias` and a small per-event
    /// noise from `rng`.
    pub fn effective_rate<R: Rng + ?Sized>(
        &self,
        rate_mbps: f64,
        solo_mbps: f64,
        bias: f64,
        rng: &mut R,
    ) -> f64 {
        let mut r = rate_mbps;
        if self.per_flow_overhead_mbps > 0.0 {
            r = r * r / (r + self.per_flow_overhead_mbps);
        }
        let contended = rate_mbps < solo_mbps * (1.0 - 1e-6);
        if contended && self.jitter > 0.0 {
            let noise = 1.0 + rng.gen_range(-self.jitter / 4.0..=self.jitter / 4.0);
            r *= bias * noise;
        }
        r.max(rate_mbps * 1e-3) // never fully stall a flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn ideal_model_is_identity() {
        let m = TcpModel::ideal();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(m.draw_run_bias(&mut rng), 1.0);
        assert_eq!(m.effective_rate(10.0, 10.0, 1.0, &mut rng), 10.0);
        assert_eq!(m.effective_rate(1.0, 10.0, 1.0, &mut rng), 1.0);
    }

    #[test]
    fn overhead_hits_slow_flows_harder() {
        let m = TcpModel {
            per_flow_overhead_mbps: 0.25,
            jitter: 0.0,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let fast = m.effective_rate(33.3, 33.3, 1.0, &mut rng) / 33.3;
        let slow = m.effective_rate(1.0, 33.3, 1.0, &mut rng) / 1.0;
        assert!(fast > 0.99, "fast flow efficiency {fast}");
        assert!(slow < 0.85, "slow flow efficiency {slow}");
    }

    #[test]
    fn uncontended_flows_deterministic() {
        let m = TcpModel::default();
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let ba = m.draw_run_bias(&mut a);
        let bb = m.draw_run_bias(&mut b);
        // Solo flow: rate == solo → neither bias nor noise applies.
        assert_eq!(
            m.effective_rate(20.0, 20.0, ba, &mut a),
            m.effective_rate(20.0, 20.0, bb, &mut b)
        );
    }

    #[test]
    fn contended_flows_jitter_with_seed() {
        let m = TcpModel::default();
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(99);
        let ba = m.draw_run_bias(&mut a);
        let bb = m.draw_run_bias(&mut b);
        let ra = m.effective_rate(5.0, 20.0, ba, &mut a);
        let rb = m.effective_rate(5.0, 20.0, bb, &mut b);
        assert_ne!(ra, rb, "different seeds produce different rates");
        // Bias and noise are bounded.
        let base = 5.0 * 5.0 / 5.25;
        let bound = m.jitter + m.jitter / 4.0 + m.jitter * m.jitter;
        for r in [ra, rb] {
            assert!(r >= base * (1.0 - bound) - 1e-9);
            assert!(r <= base * (1.0 + bound) + 1e-9);
        }
    }

    #[test]
    fn run_bias_bounded() {
        let m = TcpModel::default();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let b = m.draw_run_bias(&mut rng);
            assert!((1.0 - m.jitter..=1.0 + m.jitter).contains(&b));
        }
    }

    #[test]
    fn rate_never_stalls() {
        let m = TcpModel {
            per_flow_overhead_mbps: 1000.0,
            jitter: 0.0,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(m.effective_rate(0.001, 1.0, 1.0, &mut rng) > 0.0);
    }
}
