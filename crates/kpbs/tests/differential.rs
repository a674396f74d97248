//! Differential tests of the incremental peeling engine against the
//! from-scratch oracle strategies, both run through the one peel loop and
//! pipeline: identical schedules (hence identical cost, step count and
//! validity), peel for peel, on random instances and on regularised graphs
//! full of filler/pad edges.

use bipartite::{hopcroft_karp, EdgeId, Graph, Matching};
use kpbs::ggp::{ggp, ggp_seeded, schedule_with};
use kpbs::normalize::normalize;
use kpbs::oggp::{oggp, oggp_reference};
use kpbs::regularize::regularize;
use kpbs::wrgp::{
    peel_all_incremental, GreedySeeded, IncrementalAnyPerfect, IncrementalMaxMin, MatchingStrategy,
    MaxMinPerfect, Peel,
};
use kpbs::Instance;
use proptest::prelude::*;

fn instance_strategy(
    max_side: usize,
    max_edges: usize,
    max_w: u64,
    max_beta: u64,
) -> impl Strategy<Value = Instance> {
    (1..=max_side, 1..=max_side)
        .prop_flat_map(move |(nl, nr)| {
            let edges = proptest::collection::vec((0..nl, 0..nr, 1..=max_w), 1..=max_edges);
            (Just((nl, nr)), edges, 1..=nl.min(nr), 0..=max_beta)
        })
        .prop_map(|((nl, nr), edges, k, beta)| {
            let mut g = Graph::new(nl, nr);
            for (l, r, w) in edges {
                g.add_edge(l, r, w);
            }
            Instance::new(g, k, beta)
        })
}

/// From-scratch oracle for the incremental any-perfect strategy: every peel
/// recomputes `maximum_matching_seeded` with fresh allocations, seeded by
/// the survivors of the previous peel's matching — exactly the semantics
/// `IncrementalAnyPerfect` implements on recycled buffers.
#[derive(Default)]
struct ColdSeededChain {
    carry: Vec<EdgeId>,
}

impl MatchingStrategy for ColdSeededChain {
    fn matching(&mut self, g: &Graph) -> Matching {
        let survivors = Matching::from_edges(
            self.carry
                .iter()
                .copied()
                .filter(|&e| g.is_alive(e))
                .collect(),
        );
        let m = hopcroft_karp::maximum_matching_seeded(g, &survivors);
        self.carry = m.edges().to_vec();
        m
    }
}

/// Peels a copy of `g` with a cold oracle and another with an engine
/// strategy, both through the one WRGP loop; returns both peel sequences
/// and the engine's peeled-out graph.
fn peel_pair<C: MatchingStrategy, F: MatchingStrategy>(
    g: &Graph,
    mut cold: C,
    mut fast: F,
) -> (Vec<Peel>, Vec<Peel>, Graph) {
    let cold_peels = peel_all_incremental(&mut g.clone(), &mut cold);
    let mut fast_g = g.clone();
    let fast_peels = peel_all_incremental(&mut fast_g, &mut fast);
    (cold_peels, fast_peels, fast_g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn incremental_oggp_schedule_identical(inst in instance_strategy(8, 30, 40, 4)) {
        let fast = oggp(&inst);
        let oracle = oggp_reference(&inst);
        prop_assert!(fast.validate(&inst).is_ok());
        prop_assert_eq!(fast.cost(), oracle.cost());
        prop_assert_eq!(fast.num_steps(), oracle.num_steps());
        prop_assert_eq!(fast, oracle);
    }

    #[test]
    fn incremental_ggp_matches_seeded_chain_oracle(inst in instance_strategy(8, 30, 40, 4)) {
        let fast = ggp(&inst);
        let oracle = schedule_with(&inst, &mut ColdSeededChain::default());
        prop_assert!(fast.validate(&inst).is_ok());
        prop_assert_eq!(fast.cost(), oracle.cost());
        prop_assert_eq!(fast.num_steps(), oracle.num_steps());
        prop_assert_eq!(fast, oracle);
    }

    #[test]
    fn incremental_greedy_seeded_schedule_identical(inst in instance_strategy(8, 30, 40, 4)) {
        let fast = ggp_seeded(&inst);
        let oracle = schedule_with(&inst, &mut GreedySeeded);
        prop_assert!(fast.validate(&inst).is_ok());
        prop_assert_eq!(fast.cost(), oracle.cost());
        prop_assert_eq!(fast.num_steps(), oracle.num_steps());
        prop_assert_eq!(fast, oracle);
    }

    #[test]
    fn peels_identical_on_regularized_graphs(inst in instance_strategy(7, 25, 30, 0)) {
        // Drive the peeling kernel directly on the regularised graph, so the
        // filler/pad edges of Section 4.2.2 are part of the matchings and of
        // the incremental bookkeeping, and the filler-only peels that
        // extraction drops are compared too. The graph is the one the
        // planners peel: normalised, isolated nodes dropped, `k` clamped to
        // match. Both of the engine's per-peel modes run against their cold
        // oracles: OGGP's max–min and GGP's seeded any-perfect.
        let norm = normalize(&inst);
        let reg = regularize(&norm.graph, norm.k);
        let endpoints: Vec<(usize, usize)> = reg
            .graph
            .edges()
            .map(|(_, l, r, _)| (l, r))
            .collect();
        let runs = [
            peel_pair(&reg.graph, MaxMinPerfect, IncrementalMaxMin::new()),
            peel_pair(&reg.graph, ColdSeededChain::default(), IncrementalAnyPerfect::new()),
        ];
        for (cold, fast, fast_g) in &runs {
            prop_assert_eq!(cold.len(), fast.len(), "peel counts differ");
            for (a, b) in cold.iter().zip(fast.iter()) {
                prop_assert_eq!(a.quantum, b.quantum);
                prop_assert_eq!(&a.edges, &b.edges);
            }
            // Edge-id stability: after the graph has been peeled to nothing,
            // every id recorded in a peel still resolves to the endpoints it
            // had before peeling — Schedule transfers rely on exactly this.
            for peel in fast {
                for &e in &peel.edges {
                    prop_assert_eq!(fast_g.left_of(e), endpoints[e.index()].0);
                    prop_assert_eq!(fast_g.right_of(e), endpoints[e.index()].1);
                }
            }
        }
    }
}
