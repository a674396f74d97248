//! Property-based tests of the matching substrate, checked
//! against exhaustive brute force on small graphs.

use bipartite::{
    bottleneck, greedy, hopcroft_karp, properties, EdgeId, Graph, MatchingEngine, Weight,
};
use proptest::prelude::*;

/// Strategy: a small bipartite multigraph with weights in `1..50`.
fn graph_strategy(max_side: usize, max_edges: usize) -> impl Strategy<Value = Graph> {
    weighted_graph_strategy(max_side, max_edges, 49)
}

/// Strategy: a small bipartite multigraph with weights in `1..=max_weight`.
fn weighted_graph_strategy(
    max_side: usize,
    max_edges: usize,
    max_weight: Weight,
) -> impl Strategy<Value = Graph> {
    (1..=max_side, 1..=max_side)
        .prop_flat_map(move |(nl, nr)| {
            let edges = proptest::collection::vec((0..nl, 0..nr, 1..=max_weight), 0..=max_edges);
            (Just((nl, nr)), edges)
        })
        .prop_map(|((nl, nr), edges)| {
            let mut g = Graph::new(nl, nr);
            for (l, r, w) in edges {
                g.add_edge(l, r, w);
            }
            g
        })
}

/// Exhaustive maximum matching size by recursion over edges (exponential;
/// only for tiny graphs).
fn brute_force_max_matching(g: &Graph) -> usize {
    fn rec(edges: &[(usize, usize)], used_l: u64, used_r: u64, from: usize) -> usize {
        let mut best = 0;
        for (i, &(l, r)) in edges.iter().enumerate().skip(from) {
            if used_l & (1 << l) == 0 && used_r & (1 << r) == 0 {
                best = best.max(1 + rec(edges, used_l | (1 << l), used_r | (1 << r), i + 1));
            }
        }
        best
    }
    let edges: Vec<(usize, usize)> = g.edges().map(|(_, l, r, _)| (l, r)).collect();
    rec(&edges, 0, 0, 0)
}

/// Best achievable bottleneck among *maximum-cardinality* matchings, by
/// exhaustive search.
#[allow(clippy::too_many_arguments)]
fn brute_force_best_bottleneck(g: &Graph) -> Option<Weight> {
    #[allow(clippy::too_many_arguments)]
    fn rec(
        edges: &[(EdgeId, usize, usize, Weight)],
        used_l: u64,
        used_r: u64,
        from: usize,
        size: usize,
        min_w: Weight,
        target: usize,
        best: &mut Option<Weight>,
    ) {
        if size == target {
            *best = Some(best.map_or(min_w, |b: Weight| b.max(min_w)));
        }
        for (i, &(_, l, r, w)) in edges.iter().enumerate().skip(from) {
            if used_l & (1 << l) == 0 && used_r & (1 << r) == 0 {
                rec(
                    edges,
                    used_l | (1 << l),
                    used_r | (1 << r),
                    i + 1,
                    size + 1,
                    min_w.min(w),
                    target,
                    best,
                );
            }
        }
    }
    let target = brute_force_max_matching(g);
    if target == 0 {
        return None;
    }
    let edges: Vec<(EdgeId, usize, usize, Weight)> = g.edges().collect();
    let mut best = None;
    rec(&edges, 0, 0, 0, 0, Weight::MAX, target, &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn hopcroft_karp_is_maximum(g in graph_strategy(5, 12)) {
        let m = hopcroft_karp::maximum_matching(&g);
        prop_assert!(m.is_valid(&g));
        prop_assert_eq!(m.len(), brute_force_max_matching(&g));
    }

    #[test]
    fn bottleneck_achieves_best_min_weight(g in graph_strategy(5, 10)) {
        let m = bottleneck::max_min_matching(&g);
        prop_assert!(m.is_valid(&g));
        prop_assert_eq!(m.len(), brute_force_max_matching(&g));
        prop_assert_eq!(m.min_weight(&g), brute_force_best_bottleneck(&g));
    }

    #[test]
    fn greedy_is_maximal_half_of_maximum(g in graph_strategy(6, 15)) {
        let m = greedy::maximal_matching(&g);
        prop_assert!(m.is_valid(&g));
        prop_assert!(m.is_maximal(&g));
        // A maximal matching is at least half a maximum one.
        let max = hopcroft_karp::maximum_matching(&g).len();
        prop_assert!(2 * m.len() >= max);
    }

    #[test]
    fn peel_preserves_node_weight_budget(g in graph_strategy(6, 15)) {
        // Removing a matching's min weight from its edges reduces P(G) by
        // exactly |M|·w and never breaks node-weight accounting.
        let mut h = g.clone();
        let m = hopcroft_karp::maximum_matching(&h);
        if let Some(w) = m.min_weight(&h) {
            let p_before = properties::total_weight(&h);
            for &e in m.edges() {
                h.decrease_weight(e, w);
            }
            prop_assert_eq!(
                properties::total_weight(&h),
                p_before - w * m.len() as u64
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Irregular graphs with few distinct weights: unequal sides and
    /// isolated nodes leave lefts free for good (`target < side`, so parked
    /// trees persist), the maximum cardinality drops mid-run (a cold sweep
    /// over a still-valid split) and every weight is a large tie group
    /// (trees meet, block and wake each other within one group).
    #[test]
    fn engine_max_min_equals_cold_on_irregular_graphs(
        g in weighted_graph_strategy(12, 40, 4)
    ) {
        let mut g = g;
        let mut engine = MatchingEngine::for_graph(&g);
        while !g.is_empty() {
            let expect = bottleneck::max_min_matching(&g);
            let got = engine.max_min_matching(&g);
            prop_assert_eq!(got.edges(), expect.edges());
            let quantum = got.min_weight(&g).expect("non-empty graph yields a matching");
            for &e in got.edges() {
                g.decrease_weight(e, quantum);
            }
            engine.observe_peel(&g, &got, quantum);
        }
    }
}
