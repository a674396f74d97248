//! The platform model of Section 2.1: two clusters, NIC throughputs, a
//! backbone, and the derivation of `k` and the per-transfer speed `t`.

/// A two-cluster platform interconnected by a backbone.
///
/// Throughputs are in Mbit/s. The paper's example: `n1 = 200`, `n2 = 100`,
/// `t1 = 10`, `t2 = 100`, `T = 1000` gives `k = 100` transfers of
/// `t = 10` Mbit/s each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Platform {
    /// Nodes in the sending cluster `C1`.
    pub n1: usize,
    /// Nodes in the receiving cluster `C2`.
    pub n2: usize,
    /// Effective NIC throughput of each `C1` node, Mbit/s.
    pub t1: f64,
    /// Effective NIC throughput of each `C2` node, Mbit/s.
    pub t2: f64,
    /// Backbone throughput `T`, Mbit/s.
    pub backbone: f64,
}

impl Platform {
    /// Creates a platform, validating positivity of all parameters.
    pub fn new(n1: usize, n2: usize, t1: f64, t2: f64, backbone: f64) -> Self {
        assert!(n1 >= 1 && n2 >= 1, "clusters must be non-empty");
        assert!(
            t1 > 0.0 && t2 > 0.0 && backbone > 0.0,
            "throughputs must be positive"
        );
        Platform {
            n1,
            n2,
            t1,
            t2,
            backbone,
        }
    }

    /// The speed of one point-to-point transfer: the slower of the two NICs
    /// (a sender at `t1` cannot be received faster, and vice versa).
    pub fn transfer_speed(&self) -> f64 {
        self.t1.min(self.t2)
    }

    /// The maximum number of simultaneous transfers `k`.
    ///
    /// Each transfer moves at [`Platform::transfer_speed`] `t`, so the
    /// backbone sustains `⌊T/t⌋` of them without congestion, further capped
    /// by the cluster sizes (1-port). Note: the paper's constraint list
    /// (`k·t1 ≤ T` *and* `k·t2 ≤ T`) contradicts its own worked example
    /// (`k = 100` with `t2 = 100`, `T = 1000`); the example is consistent
    /// with the per-transfer speed being `t = min(t1, t2)`, which is what we
    /// implement.
    pub fn k(&self) -> usize {
        // Small epsilon absorbs float noise when T is an exact multiple of t
        // (e.g. the shaped testbed where t = 100/k).
        let by_backbone = (self.backbone / self.transfer_speed() + 1e-9).floor() as usize;
        by_backbone.clamp(1, self.n1.min(self.n2))
    }

    /// True when the backbone is *not* a bottleneck (`k = min(n1, n2)`,
    /// Section 2.4 — the local-redistribution regime).
    pub fn backbone_unconstrained(&self) -> bool {
        self.k() == self.n1.min(self.n2)
    }

    /// The testbed of Section 5.2: two 10-node clusters of 100 Mbit/s NICs
    /// shaped down to `100/k` Mbit/s with a 100 Mbit/s interconnect, so that
    /// exactly `k` transfers fit.
    pub fn testbed(k: usize) -> Self {
        assert!(k >= 1);
        let shaped = 100.0 / k as f64;
        Platform::new(10, 10, shaped, shaped, 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example() {
        let p = Platform::new(200, 100, 10.0, 100.0, 1000.0);
        assert_eq!(p.transfer_speed(), 10.0);
        assert_eq!(p.k(), 100);
        assert!(p.backbone_unconstrained()); // k = min(n1, n2) = 100
    }

    #[test]
    fn backbone_bottleneck() {
        let p = Platform::new(10, 10, 100.0, 100.0, 300.0);
        assert_eq!(p.k(), 3);
        assert!(!p.backbone_unconstrained());
    }

    #[test]
    fn k_at_least_one() {
        // Backbone slower than one NIC still allows one (slowed) transfer.
        let p = Platform::new(4, 4, 100.0, 100.0, 10.0);
        assert_eq!(p.k(), 1);
    }

    #[test]
    fn k_capped_by_cluster_size() {
        let p = Platform::new(2, 8, 10.0, 10.0, 1000.0);
        assert_eq!(p.k(), 2);
    }

    #[test]
    fn testbed_platforms() {
        for k in [3, 5, 7] {
            let p = Platform::testbed(k);
            assert_eq!(p.k(), k, "shaped testbed must admit exactly k flows");
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn invalid_throughput_rejected() {
        Platform::new(1, 1, 0.0, 1.0, 1.0);
    }
}
