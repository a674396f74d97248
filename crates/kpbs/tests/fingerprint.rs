//! Property tests of the two-lane word mixer and the instance key built on
//! it: stability on identical instances, sensitivity to every field the
//! planners read, and collision-freedom between canonically distinct
//! instances.

use bipartite::Graph;
use kpbs::fingerprint::Mixer;
use kpbs::{cache_key, Instance};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashSet;

/// An instance plus the raw tuple it was built from, so tests can rebuild
/// or perturb it field by field.
#[derive(Debug, Clone)]
struct Raw {
    n1: usize,
    n2: usize,
    edges: Vec<(usize, usize, u64)>,
    k: usize,
    beta: u64,
}

impl Raw {
    fn build(&self) -> Instance {
        let mut g = Graph::new(self.n1, self.n2);
        for &(l, r, w) in &self.edges {
            g.add_edge(l, r, w);
        }
        Instance::new(g, self.k, self.beta)
    }
}

fn raw_strategy() -> impl Strategy<Value = Raw> {
    (2usize..=8, 2usize..=8)
        .prop_flat_map(|(n1, n2)| {
            let edges = proptest::collection::vec((0..n1, 0..n2, 1u64..=50), 1..=20);
            (Just((n1, n2)), edges, 1..=n1.min(n2), 0u64..=10)
        })
        .prop_map(|((n1, n2), edges, k, beta)| Raw {
            n1,
            n2,
            edges,
            k,
            beta,
        })
}

/// A raw key tuple `(tag, n1, n2, m, (l, r, w)*, k, β)`, hashed word by
/// word through the mixer (so fields need not form a valid instance).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Tuple {
    tag: u64,
    n1: usize,
    n2: usize,
    edges: Vec<(usize, usize, u64)>,
    k: usize,
    beta: u64,
}

impl Tuple {
    fn key(&self) -> u128 {
        let mut h = Mixer::new();
        for w in [self.tag, self.n1 as u64, self.n2 as u64] {
            h.word(w);
        }
        h.word(self.edges.len() as u64);
        for &(l, r, w) in &self.edges {
            h.word(((l as u64) << 32) | r as u64);
            h.word(w);
        }
        h.word(self.k as u64);
        h.word(self.beta);
        h.digest()
    }
}

/// Endpoints below 2³¹ (an edge's endpoints share one hashed word, so each
/// must stay below 2³² after the one-field flips below), any weight and β.
fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    let edge = (0usize..1 << 31, 0usize..1 << 31, 1u64..=u64::MAX);
    let sides = (1usize..1 << 31, 1usize..1 << 31);
    (
        0u64..=u64::MAX,
        sides,
        vec(edge, 1..=16),
        1usize..=64,
        0u64..=u64::MAX,
    )
        .prop_map(|(tag, (n1, n2), edges, k, beta)| Tuple {
            tag,
            n1,
            n2,
            edges,
            k,
            beta,
        })
}

/// The 64-bit halves of a key.
fn halves(key: u128) -> (u64, u64) {
    (key as u64, (key >> 64) as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Flipping any bits of one field — the tag, a side, `k`, β, or one
    /// edge's endpoint or weight — changes one hashed word, and each lane
    /// step is a bijection for a fixed word: both halves always move.
    #[test]
    fn changing_one_field_moves_both_halves(
        t in tuple_strategy(),
        field in 0usize..8,
        pick in 0usize..16,
        flip in 1u64..=u32::MAX as u64,
    ) {
        let mut u = t.clone();
        let e = pick % u.edges.len();
        match field {
            0 => u.tag ^= flip,
            1 => u.n1 ^= flip as usize,
            2 => u.n2 ^= flip as usize,
            3 => u.k ^= flip as usize,
            4 => u.beta ^= flip,
            5 => u.edges[e].0 ^= flip as usize,
            6 => u.edges[e].1 ^= flip as usize,
            _ => u.edges[e].2 ^= flip,
        }
        let (a, b) = (halves(t.key()), halves(u.key()));
        prop_assert!(a.0 != b.0, "low half unmoved by field {}", field);
        prop_assert!(a.1 != b.1, "high half unmoved by field {}", field);
    }

    #[test]
    fn identical_instances_hash_stably(raw in raw_strategy(), tag in 0u64..=8) {
        // Two independent constructions of the same tuple agree — the
        // stability a plan cache needs to ever hit.
        let a = raw.build();
        let b = raw.build();
        prop_assert_eq!(cache_key(&a, tag), cache_key(&b, tag));
        // And hashing is a pure function: rehashing the same instance
        // yields the same digest.
        prop_assert_eq!(cache_key(&a, tag), cache_key(&a, tag));
    }

    #[test]
    fn distinct_instances_get_distinct_cache_keys(
        raw_a in raw_strategy(),
        raw_b in raw_strategy(),
        tag in 0u64..=8,
    ) {
        // Canonically different instances must not share a cache key (a
        // collision in 200 small random cases would be astronomically
        // unlucky and *would* be a cache-poisoning bug worth hearing
        // about).
        let same = raw_a.n1 == raw_b.n1
            && raw_a.n2 == raw_b.n2
            && raw_a.edges == raw_b.edges
            && raw_a.k == raw_b.k
            && raw_a.beta == raw_b.beta;
        prop_assume!(!same);
        let a = raw_a.build();
        let b = raw_b.build();
        prop_assert_ne!(cache_key(&a, tag), cache_key(&b, tag));
    }

    #[test]
    fn sensitive_to_k_and_beta(raw in raw_strategy(), tag in 0u64..=8) {
        let base = raw.build();
        let mut bumped_k = raw.clone();
        bumped_k.k += 1;
        let mut bumped_beta = raw.clone();
        bumped_beta.beta += 1;
        // k and beta must each be part of the key.
        prop_assert_ne!(cache_key(&base, tag), cache_key(&bumped_k.build(), tag));
        prop_assert_ne!(cache_key(&base, tag), cache_key(&bumped_beta.build(), tag));
        // Different algorithm tags never collide for the same instance.
        prop_assert_ne!(cache_key(&base, tag), cache_key(&base, tag + 1));
    }
}

/// 2¹⁸ random distinct tuples of the serving layer's shape (small sides,
/// a few edges, small weights, `k` and β) share no low half and no high
/// half: at 64 bits each, a collision among 2¹⁸ honest keys has odds of
/// about 2⁻²⁹.
#[test]
fn random_distinct_tuples_collide_in_neither_half() {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let mut tuples = HashSet::new();
    while tuples.len() < 1 << 18 {
        let (n1, n2) = (1 + next(64) as usize, 1 + next(64) as usize);
        let edges = (0..next(7))
            .map(|_| {
                (
                    next(n1 as u64) as usize,
                    next(n2 as u64) as usize,
                    1 + next(1000),
                )
            })
            .collect();
        tuples.insert(Tuple {
            tag: next(2),
            n1,
            n2,
            edges,
            k: 1 + next(8) as usize,
            beta: next(100),
        });
    }
    let (mut lo, mut hi) = (HashSet::new(), HashSet::new());
    for t in &tuples {
        let (l, h) = halves(t.key());
        lo.insert(l);
        hi.insert(h);
    }
    assert_eq!((lo.len(), hi.len()), (tuples.len(), tuples.len()));
}
