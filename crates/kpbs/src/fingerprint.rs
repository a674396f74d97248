//! The two-lane word mixer behind the serving layer's plan-cache keys.
//!
//! A long-lived planner (`redistd`) answers a repeated request from a plan
//! cache, so it needs a 128-bit key that two honest requests share only
//! when they plan equal. [`Mixer`] hashes a sequence of `u64` words: each
//! lane folds a word in as `lane = rotl((lane ^ word) · M, r)` with its
//! own odd multiplier `M` and rotation `r`, and [`Mixer::digest`] ends
//! each lane with the splitmix64 finaliser. For a fixed word each step is
//! a bijection of the lane state, and so is the finaliser, so two
//! sequences of equal length that differ in exactly one word never share
//! either 64-bit half. The halves are concatenated into a `u128`. The
//! mixer is not cryptographic: keys are for telling honest requests
//! apart, and an accidental collision of both lanes sits far below any
//! operational concern.
//!
//! Which words a key hashes is the caller's choice; `redistd` hashes a
//! request's own words (`redistd::wire::PlanRequest::cache_key`).

use crate::problem::Instance;

/// Start state, odd multiplier and rotation of the low lane.
const LO: (u64, u64, u32) = (0xcbf2_9ce4_8422_2325, 0x9e37_79b9_7f4a_7c15, 29);
/// Start state, odd multiplier and rotation of the high lane: constants
/// unrelated to the low lane's, so the halves stay decorrelated.
const HI: (u64, u64, u32) = (0x6c62_272e_07bb_0142, 0xd6e8_feb8_6659_fd93, 37);

/// An incremental two-lane word mixer producing a 128-bit digest.
#[derive(Debug, Clone)]
pub struct Mixer {
    lo: u64,
    hi: u64,
}

impl Default for Mixer {
    fn default() -> Self {
        Mixer::new()
    }
}

impl Mixer {
    /// A mixer that has hashed no word yet.
    pub fn new() -> Self {
        Mixer { lo: LO.0, hi: HI.0 }
    }

    /// Folds one word into both lanes.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.lo = (self.lo ^ w).wrapping_mul(LO.1).rotate_left(LO.2);
        self.hi = (self.hi ^ w).wrapping_mul(HI.1).rotate_left(HI.2);
    }

    /// The 128-bit digest of the words hashed so far: the finalised high
    /// lane above the finalised low lane.
    pub fn digest(&self) -> u128 {
        ((avalanche(self.hi) as u128) << 64) | avalanche(self.lo) as u128
    }
}

/// The splitmix64 finaliser: a bijection on `u64` in which every input
/// bit flips about half of the output bits.
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A key of a built instance: [`Mixer`] over `(tag, n1, n2, m, (l, r, w)*
/// in edge-id order, k, β)`, an edge's endpoints sharing one word with `l`
/// in the high half. No product code keys a cache with it; it stays only
/// because the end-to-end benchmark (`benchmark/`) replays it as a layer.
pub fn cache_key(inst: &Instance, tag: u64) -> u128 {
    let g = &inst.graph;
    let mut h = Mixer::new();
    let (n1, n2, m) = (g.left_count(), g.right_count(), g.edge_count());
    for w in [tag, n1 as u64, n2 as u64, m as u64] {
        h.word(w);
    }
    for (_, l, r, w) in g.edges() {
        h.word(((l as u64) << 32) | r as u64);
        h.word(w);
    }
    h.word(inst.k as u64);
    h.word(inst.beta);
    h.digest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bipartite::Graph;

    fn inst(edges: &[(usize, usize, u64)], k: usize, beta: u64) -> Instance {
        let mut g = Graph::new(4, 4);
        for &(l, r, w) in edges {
            g.add_edge(l, r, w);
        }
        Instance::new(g, k, beta)
    }

    #[test]
    fn identical_instances_hash_equal() {
        let a = inst(&[(0, 0, 5), (1, 2, 3)], 2, 1);
        let b = inst(&[(0, 0, 5), (1, 2, 3)], 2, 1);
        assert_eq!(cache_key(&a, 7), cache_key(&b, 7));
    }

    #[test]
    fn every_field_is_significant() {
        let base = inst(&[(0, 0, 5), (1, 2, 3)], 2, 1);
        let variants = [
            inst(&[(0, 0, 5), (1, 2, 4)], 2, 1), // weight
            inst(&[(0, 0, 5), (1, 3, 3)], 2, 1), // endpoint
            inst(&[(0, 0, 5), (1, 2, 3)], 3, 1), // k
            inst(&[(0, 0, 5), (1, 2, 3)], 2, 2), // beta
            inst(&[(0, 0, 5)], 2, 1),            // edge count
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(cache_key(&base, 0), cache_key(v, 0), "variant {i}");
        }
    }

    #[test]
    fn edge_order_is_significant() {
        // Edge ids label the schedule's transfers, so insertion order is
        // part of the instance identity — the key must see it.
        let a = inst(&[(0, 0, 5), (1, 2, 3)], 2, 1);
        let b = inst(&[(1, 2, 3), (0, 0, 5)], 2, 1);
        assert_ne!(cache_key(&a, 0), cache_key(&b, 0));
    }

    #[test]
    fn node_counts_are_significant() {
        let mut g1 = Graph::new(2, 2);
        g1.add_edge(0, 0, 5);
        let mut g2 = Graph::new(3, 2);
        g2.add_edge(0, 0, 5);
        assert_ne!(
            cache_key(&Instance::new(g1, 1, 0), 0),
            cache_key(&Instance::new(g2, 1, 0), 0)
        );
    }

    #[test]
    fn tag_separates_domains() {
        let a = inst(&[(0, 0, 5)], 1, 0);
        assert_ne!(cache_key(&a, 0), cache_key(&a, 1));
    }

    #[test]
    fn streaming_key_equals_instance_key() {
        // The instance key is the mixer over its documented word sequence.
        let a = inst(&[(0, 0, 5), (1, 2, 3), (3, 1, 9)], 2, 1);
        let mut h = Mixer::new();
        for w in [7, 4, 4, 3, 0, 5, (1 << 32) | 2, 3, (3 << 32) | 1, 9, 2, 1] {
            h.word(w);
        }
        assert_eq!(h.digest(), cache_key(&a, 7));
    }

    #[test]
    fn halves_are_decorrelated() {
        let a = cache_key(&inst(&[(0, 0, 5)], 1, 0), 0);
        assert_ne!(a as u64, (a >> 64) as u64);
    }
}
