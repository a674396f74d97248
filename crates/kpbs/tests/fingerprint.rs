//! Property tests of the instance fingerprint / cache key: stability on
//! identical instances, sensitivity to every field the planners read, and
//! collision-freedom between canonically distinct instances.

use bipartite::Graph;
use kpbs::{cache_key, fingerprint, Instance};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn identical_instances_hash_stably(raw in raw_strategy(), tag in 0u64..=8) {
        // Two independent constructions of the same tuple agree — the
        // stability a plan cache needs to ever hit.
        let a = raw.build();
        let b = raw.build();
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert_eq!(cache_key(&a, tag), cache_key(&b, tag));
        // And hashing is a pure function: rehashing the same instance
        // yields the same digest.
        prop_assert_eq!(fingerprint(&a), fingerprint(&a));
    }

    #[test]
    fn distinct_instances_get_distinct_cache_keys(
        raw_a in raw_strategy(),
        raw_b in raw_strategy(),
        tag in 0u64..=8,
    ) {
        // Canonically different instances must not share a cache key (an
        // FNV collision in 200 small random cases would be astronomically
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
        prop_assert_ne!(fingerprint(&a), fingerprint(&b));
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
        prop_assert_ne!(fingerprint(&base), fingerprint(&bumped_k.build()));
        prop_assert_ne!(fingerprint(&base), fingerprint(&bumped_beta.build()));
        prop_assert_ne!(cache_key(&base, tag), cache_key(&bumped_k.build(), tag));
        prop_assert_ne!(cache_key(&base, tag), cache_key(&bumped_beta.build(), tag));
        // Different algorithm tags never collide for the same instance.
        prop_assert_ne!(cache_key(&base, tag), cache_key(&base, tag + 1));
    }
}
