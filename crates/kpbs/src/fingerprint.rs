//! Canonical instance fingerprints — the cache key of the serving layer.
//!
//! A long-lived planner (`redistd`) wants to answer a repeated request from
//! a plan cache, but a cached answer is only usable when it is *the* answer:
//! byte-identical to what a cold run would produce. The schedulers here are
//! deterministic functions of the instance — node counts, `k`, `β`, and the
//! edge list **in edge-id order** (edge ids appear in [`crate::Schedule`]
//! transfers, so two instances with the same edge multiset but different
//! insertion orders yield differently-labelled schedules). The fingerprint
//! therefore hashes exactly that tuple, and nothing else.
//!
//! Instances built through a canonical constructor —
//! [`crate::TrafficMatrix::to_instance`] emits edges in row-major
//! `(sender, receiver)` order, as does the `redistd` wire decoder — hash
//! equal iff they plan equal, which is the property the cache needs:
//! equal fingerprints → byte-identical schedules (up to the 128-bit
//! collision bound), different fingerprints → at worst a needless miss.
//! [`cache_key_from_edges`] computes the same key from the raw tuple, so a
//! server can probe its cache straight from a decoded frame and build the
//! instance only on a miss.
//!
//! The hash is a two-lane word mixer: every field of the tuple is one
//! `u64` word (an edge's endpoints share one word), and each lane folds a
//! word in as `lane = rotl((lane ^ word) · M, r)` with its own odd
//! multiplier `M` and rotation `r`, then ends with the splitmix64
//! finaliser. For a fixed word each step is a bijection of the lane
//! state, and so is the finaliser, so two tuples of equal length that
//! differ in exactly one word never share either 64-bit half. The halves
//! are concatenated into a `u128`. The mixer is not cryptographic: keys
//! are for telling honest requests apart, and an accidental collision of
//! both lanes sits far below any operational concern.

use crate::problem::Instance;
use bipartite::Weight;

/// Start state, odd multiplier and rotation of the low lane.
const LO: (u64, u64, u32) = (0xcbf2_9ce4_8422_2325, 0x9e37_79b9_7f4a_7c15, 29);
/// Start state, odd multiplier and rotation of the high lane: constants
/// unrelated to the low lane's, so the halves stay decorrelated.
const HI: (u64, u64, u32) = (0x6c62_272e_07bb_0142, 0xd6e8_feb8_6659_fd93, 37);

/// An incremental two-lane word mixer producing a 128-bit digest.
#[derive(Debug, Clone)]
struct Mix2 {
    lo: u64,
    hi: u64,
}

impl Mix2 {
    fn new() -> Self {
        Mix2 { lo: LO.0, hi: HI.0 }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.lo = (self.lo ^ w).wrapping_mul(LO.1).rotate_left(LO.2);
        self.hi = (self.hi ^ w).wrapping_mul(HI.1).rotate_left(HI.2);
    }

    fn digest(&self) -> u128 {
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

/// The canonical 128-bit fingerprint of an instance: a hash of
/// `(n1, n2, k, β, edges in id order)`. Equal fingerprints identify
/// instances on which every scheduler in this crate produces identical
/// schedules; see the module docs for the canonical-construction caveat.
pub fn fingerprint(inst: &Instance) -> u128 {
    let mut h = Mix2::new();
    write_instance(&mut h, inst);
    h.digest()
}

/// Fingerprint extended with a caller-chosen domain tag — the serving
/// layer's cache key, where `tag` encodes the algorithm (and any future
/// planner option) so OGGP and GGP plans for one instance never collide.
pub fn cache_key(inst: &Instance, tag: u64) -> u128 {
    let mut h = Mix2::new();
    h.word(tag);
    write_instance(&mut h, inst);
    h.digest()
}

/// The streaming form of [`cache_key`]: the **same `u128`** computed from
/// the raw tuple `(tag, n1, n2, m, (l, r, ticks)*, k, β)` instead of a built
/// [`Instance`]. `edges` must yield the `m` edges in edge-id order — for a
/// canonically constructed instance that is row-major `(sender, receiver)`
/// order, which is exactly how a CSR matrix stores its cells — so a server
/// can key its plan cache straight from a decoded frame and only build the
/// instance (dense matrix, adjacency lists) when the probe misses.
pub fn cache_key_from_edges(
    tag: u64,
    n1: usize,
    n2: usize,
    m: usize,
    edges: impl IntoIterator<Item = (usize, usize, Weight)>,
    k: usize,
    beta: Weight,
) -> u128 {
    let mut h = Mix2::new();
    h.word(tag);
    write_tuple(&mut h, n1, n2, m, edges, k, beta);
    h.digest()
}

fn write_instance(h: &mut Mix2, inst: &Instance) {
    let g = &inst.graph;
    write_tuple(
        h,
        g.left_count(),
        g.right_count(),
        g.edge_count(),
        g.edges().map(|(_, l, r, w)| (l, r, w)),
        inst.k,
        inst.beta,
    );
}

/// The one definition of the hashed word sequence; every key in this
/// module, instance-based or streaming, goes through it. An edge's
/// endpoints share one word, `l` in the high half: both are below 2³² (the
/// graph stores them as `u32`, the wire carries them as `u32`).
fn write_tuple(
    h: &mut Mix2,
    n1: usize,
    n2: usize,
    m: usize,
    edges: impl IntoIterator<Item = (usize, usize, Weight)>,
    k: usize,
    beta: Weight,
) {
    h.word(n1 as u64);
    h.word(n2 as u64);
    h.word(m as u64);
    for (l, r, w) in edges {
        debug_assert!(l <= u32::MAX as usize && r <= u32::MAX as usize);
        h.word(((l as u64) << 32) | r as u64);
        h.word(w);
    }
    h.word(k as u64);
    h.word(beta);
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
        assert_eq!(fingerprint(&a), fingerprint(&b));
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
            assert_ne!(fingerprint(&base), fingerprint(v), "variant {i}");
        }
    }

    #[test]
    fn edge_order_is_significant() {
        // Edge ids label the schedule's transfers, so insertion order is
        // part of the instance identity — the fingerprint must see it.
        let a = inst(&[(0, 0, 5), (1, 2, 3)], 2, 1);
        let b = inst(&[(1, 2, 3), (0, 0, 5)], 2, 1);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn node_counts_are_significant() {
        let mut g1 = Graph::new(2, 2);
        g1.add_edge(0, 0, 5);
        let mut g2 = Graph::new(3, 2);
        g2.add_edge(0, 0, 5);
        assert_ne!(
            fingerprint(&Instance::new(g1, 1, 0)),
            fingerprint(&Instance::new(g2, 1, 0))
        );
    }

    #[test]
    fn tag_separates_domains() {
        let a = inst(&[(0, 0, 5)], 1, 0);
        assert_ne!(cache_key(&a, 0), cache_key(&a, 1));
        assert_ne!(fingerprint(&a), cache_key(&a, 0));
    }

    #[test]
    fn streaming_key_equals_instance_key() {
        let edges = [(0, 0, 5), (1, 2, 3), (3, 1, 9)];
        let a = inst(&edges, 2, 1);
        for tag in [0, 1, 7] {
            assert_eq!(
                cache_key_from_edges(tag, 4, 4, edges.len(), edges, 2, 1),
                cache_key(&a, tag)
            );
        }
    }

    #[test]
    fn halves_are_decorrelated() {
        let a = fingerprint(&inst(&[(0, 0, 5)], 1, 0));
        assert_ne!(a as u64, (a >> 64) as u64);
    }
}
