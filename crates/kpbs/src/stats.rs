//! Evaluation-ratio statistics and the simulation-campaign driver behind
//! Figures 7–9 of the paper.
//!
//! The paper generates random bipartite graphs, runs GGP and OGGP, and plots
//! the *evaluation ratio* — schedule cost divided by the Cohen–Jeannot–Padoy
//! lower bound — as average and maximum over many trials.

use crate::ggp::ggp;
use crate::lower_bound::lower_bound;
use crate::oggp::oggp;
use crate::problem::Instance;
use bipartite::generate::{random_graph, GraphParams};
use bipartite::Weight;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Streaming summary of a set of ratios.
#[derive(Debug, Clone, Copy)]
pub struct RatioStats {
    /// Number of samples folded in.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest sample.
    pub max: f64,
    /// Smallest sample.
    pub min: f64,
}

impl Default for RatioStats {
    fn default() -> Self {
        RatioStats {
            count: 0,
            mean: 0.0,
            max: f64::NEG_INFINITY,
            min: f64::INFINITY,
        }
    }
}

impl RatioStats {
    /// Folds one sample in.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        self.max = self.max.max(x);
        self.min = self.min.min(x);
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &RatioStats) {
        if other.count == 0 {
            return;
        }
        let total = self.count + other.count;
        self.mean =
            (self.mean * self.count as f64 + other.mean * other.count as f64) / total as f64;
        self.count = total;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

/// How the campaign draws `k` for each trial.
#[derive(Debug, Clone, Copy)]
pub enum KChoice {
    /// A fixed `k`, clamped per-trial to `min(n1, n2)` (Figures 7–8 sweep
    /// this value along the x-axis).
    Fixed(usize),
    /// Uniform in `1..=min(n1, n2)` per trial (Figure 9).
    Random,
}

/// One campaign configuration (one point of a paper figure).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of random graphs to draw.
    pub trials: usize,
    /// Maximum nodes per side of the random graphs.
    pub max_nodes_per_side: usize,
    /// Maximum number of edges.
    pub max_edges: usize,
    /// Inclusive edge-weight range.
    pub weight_range: (Weight, Weight),
    /// Setup delay β in ticks.
    pub beta: Weight,
    /// How `k` is chosen.
    pub k: KChoice,
    /// RNG seed (campaigns are fully reproducible).
    pub seed: u64,
}

impl Default for CampaignConfig {
    /// Figure 7 defaults (with a tractable trial count; the paper used
    /// 100 000 per point).
    fn default() -> Self {
        CampaignConfig {
            trials: 1000,
            max_nodes_per_side: 20,
            max_edges: 400,
            weight_range: (1, 20),
            beta: 1,
            k: KChoice::Random,
            seed: 0x5EED,
        }
    }
}

/// Result of one campaign: evaluation-ratio statistics for both algorithms.
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
    /// GGP cost / lower bound.
    pub ggp: RatioStats,
    /// GGP with the heaviest-seeded matching (the paper leaves the matching
    /// routine open; this variant bounds how much that choice matters).
    pub ggp_seeded: RatioStats,
    /// OGGP cost / lower bound.
    pub oggp: RatioStats,
    /// GGP steps / OGGP steps (the paper reports OGGP needs ~50% fewer).
    pub step_ratio: RatioStats,
}

/// Runs a campaign: draw `trials` random graphs, schedule each with GGP and
/// OGGP, and accumulate cost/lower-bound ratios.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let params = GraphParams {
        max_nodes_per_side: cfg.max_nodes_per_side,
        max_edges: cfg.max_edges,
        weight_range: cfg.weight_range,
    };
    let mut result = CampaignResult::default();
    for _ in 0..cfg.trials {
        let g = random_graph(&mut rng, &params);
        let side_min = g.left_count().min(g.right_count());
        let k = match cfg.k {
            KChoice::Fixed(k) => k.clamp(1, side_min),
            KChoice::Random => rng.gen_range(1..=side_min),
        };
        let inst = Instance::new(g, k, cfg.beta);
        let lb = lower_bound(&inst) as f64;
        debug_assert!(lb > 0.0, "non-empty graphs have positive bounds");
        let a = ggp(&inst);
        let s = crate::ggp::ggp_seeded(&inst);
        let b = oggp(&inst);
        debug_assert!(a.validate(&inst).is_ok());
        debug_assert!(s.validate(&inst).is_ok());
        debug_assert!(b.validate(&inst).is_ok());
        result.ggp.push(a.cost() as f64 / lb);
        result.ggp_seeded.push(s.cost() as f64 / lb);
        result.oggp.push(b.cost() as f64 / lb);
        if b.num_steps() > 0 {
            result
                .step_ratio
                .push(a.num_steps() as f64 / b.num_steps() as f64);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_stats_streaming() {
        let mut s = RatioStats::default();
        for x in [1.0, 2.0, 3.0] {
            s.push(x);
        }
        assert_eq!(s.count, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.min, 1.0);
    }

    #[test]
    fn ratio_stats_merge() {
        let mut a = RatioStats::default();
        a.push(1.0);
        a.push(3.0);
        let mut b = RatioStats::default();
        b.push(5.0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert!((a.mean - 3.0).abs() < 1e-12);
        assert_eq!(a.max, 5.0);
        let empty = RatioStats::default();
        a.merge(&empty);
        assert_eq!(a.count, 3);
    }

    #[test]
    fn small_campaign_sane() {
        let cfg = CampaignConfig {
            trials: 40,
            max_nodes_per_side: 6,
            max_edges: 25,
            weight_range: (1, 20),
            beta: 1,
            k: KChoice::Random,
            seed: 7,
        };
        let r = run_campaign(&cfg);
        assert_eq!(r.ggp.count, 40);
        assert!(r.ggp.min >= 1.0, "cost can never beat the lower bound");
        assert!(r.oggp.min >= 1.0);
        assert!(r.oggp.mean <= r.ggp.mean + 1e-9, "OGGP at least as good");
        // The paper's simulations never exceeded 1.8; leave slack but catch
        // gross regressions.
        assert!(r.ggp.max < 2.5, "GGP ratio {} looks broken", r.ggp.max);
    }

    #[test]
    fn campaign_reproducible() {
        let cfg = CampaignConfig {
            trials: 10,
            max_nodes_per_side: 5,
            max_edges: 12,
            ..Default::default()
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.ggp.mean, b.ggp.mean);
        assert_eq!(a.oggp.max, b.oggp.max);
    }

    #[test]
    fn fixed_k_clamped() {
        let cfg = CampaignConfig {
            trials: 15,
            max_nodes_per_side: 4,
            max_edges: 10,
            k: KChoice::Fixed(100),
            ..Default::default()
        };
        // Must not panic despite k exceeding every side.
        let r = run_campaign(&cfg);
        assert_eq!(r.ggp.count, 15);
    }

    #[test]
    fn large_weights_near_optimal() {
        // Figure 8's regime: weights up to 10000, β = 1 → ratios ≈ 1.
        let cfg = CampaignConfig {
            trials: 25,
            max_nodes_per_side: 8,
            max_edges: 40,
            weight_range: (1, 10_000),
            beta: 1,
            k: KChoice::Random,
            seed: 3,
        };
        let r = run_campaign(&cfg);
        assert!(
            r.oggp.max < 1.05,
            "large-weight OGGP ratio {} should be near 1",
            r.oggp.max
        );
    }
}
