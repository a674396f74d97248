//! WRGP — Weight-Regular Graph Peeling (Section 4.1, Figure 3).
//!
//! Input: a weight-regular bipartite graph with `|V1| = |V2|`. Such a graph
//! always contains a perfect matching \[8\]; WRGP repeatedly extracts one,
//! transmits the matching's *minimum* weight `w` on every matched edge
//! (preemption cuts the larger edges), and subtracts. Every peel removes at
//! least one edge (the minimum one), so there are at most `m` iterations,
//! and the residual graph stays weight-regular because a uniform `w` is
//! removed from every node.
//!
//! The choice of perfect matching is pluggable via [`MatchingStrategy`].
//! The planners' strategies drive a [`bipartite::MatchingEngine`] that
//! carries the surviving matching, the bottleneck threshold and every
//! scratch buffer from one peel to the next: [`IncrementalAnyPerfect`]
//! (GGP), [`IncrementalGreedySeeded`] (heaviest-first-seeded GGP) and
//! [`IncrementalMaxMin`] (OGGP, the bottleneck matching of Fig. 6 that
//! maximises `w` and thereby minimises the number of steps). Two
//! from-scratch strategies stay as oracles the differential tests compare
//! the engine against: [`MaxMinPerfect`] and [`GreedySeeded`]. All of them
//! run through the one loop, [`peel_all_incremental`].

use bipartite::{
    bottleneck, greedy, hopcroft_karp, EdgeId, Graph, Matching, MatchingEngine, Weight,
};
use telemetry::counters::{self, Counter};

/// How WRGP picks the perfect matching of each peel. The peeling loop calls
/// [`begin`](MatchingStrategy::begin) once, then alternates
/// [`matching`](MatchingStrategy::matching) with
/// [`observe_peel`](MatchingStrategy::observe_peel) after subtracting each
/// quantum. A from-scratch strategy implements only `matching`.
pub trait MatchingStrategy {
    /// Called once before the first peel of a run over `g`.
    fn begin(&mut self, g: &Graph) {
        let _ = g;
    }

    /// Returns a maximum-cardinality matching of the residual graph
    /// (perfect whenever the peeling invariant holds).
    fn matching(&mut self, g: &Graph) -> Matching;

    /// Called after the caller subtracted `quantum` from every edge of
    /// `peeled` (removing the ones that reached zero).
    fn observe_peel(&mut self, g: &Graph, peeled: &Matching, quantum: Weight) {
        let _ = (g, peeled, quantum);
    }
}

/// The perfect matching whose minimum edge weight is maximal (Figure 6),
/// computed from scratch every peel: the oracle of [`IncrementalMaxMin`]
/// and of [`crate::oggp::oggp_reference`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxMinPerfect;

impl MatchingStrategy for MaxMinPerfect {
    fn matching(&mut self, g: &Graph) -> Matching {
        bottleneck::max_min_matching(g)
    }
}

/// A perfect matching grown from a heaviest-first greedy seed, computed
/// from scratch every peel: the oracle of [`IncrementalGreedySeeded`].
/// Still "any perfect matching" as far as GGP's correctness goes, but
/// biased towards heavy edges. Quantifies how much of OGGP's advantage a
/// cheap heuristic in the matching routine already captures — the paper
/// leaves the matching algorithm open, so reported GGP numbers depend on
/// exactly this choice.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySeeded;

impl MatchingStrategy for GreedySeeded {
    fn matching(&mut self, g: &Graph) -> Matching {
        let seed = greedy::maximal_matching_heaviest_first(g);
        hopcroft_karp::maximum_matching_seeded(g, &seed)
    }
}

/// Plain GGP's any perfect matching: each peel's matching is grown from
/// the survivors of the previous one on recycled engine buffers,
/// equivalent to re-running `maximum_matching_seeded` with the surviving
/// pairs as seed.
#[derive(Debug, Default)]
pub struct IncrementalAnyPerfect {
    engine: MatchingEngine,
}

impl IncrementalAnyPerfect {
    /// Creates a strategy with an empty engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MatchingStrategy for IncrementalAnyPerfect {
    fn begin(&mut self, g: &Graph) {
        self.engine.begin(g);
    }

    fn matching(&mut self, g: &Graph) -> Matching {
        self.engine.any_perfect_matching(g)
    }

    fn observe_peel(&mut self, g: &Graph, peeled: &Matching, quantum: Weight) {
        self.engine.observe_peel(g, peeled, quantum);
    }
}

/// Incremental [`MaxMinPerfect`]: identical matchings peel for peel (the
/// returned matching goes through the same canonical filtered solve), but
/// the cardinality witness, the threshold sweep and every scratch buffer
/// are carried across peels.
#[derive(Debug, Default)]
pub struct IncrementalMaxMin {
    engine: MatchingEngine,
}

impl IncrementalMaxMin {
    /// Creates a strategy with an empty engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MatchingStrategy for IncrementalMaxMin {
    fn begin(&mut self, g: &Graph) {
        self.engine.begin(g);
    }

    fn matching(&mut self, g: &Graph) -> Matching {
        self.engine.max_min_matching(g)
    }

    fn observe_peel(&mut self, g: &Graph, peeled: &Matching, quantum: Weight) {
        self.engine.observe_peel(g, peeled, quantum);
    }
}

/// Incremental [`GreedySeeded`]: identical matchings peel for peel, with
/// the heaviest-first order maintained by an O(m) merge instead of a
/// per-peel sort.
#[derive(Debug, Default)]
pub struct IncrementalGreedySeeded {
    engine: MatchingEngine,
}

impl IncrementalGreedySeeded {
    /// Creates a strategy with an empty engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MatchingStrategy for IncrementalGreedySeeded {
    fn begin(&mut self, g: &Graph) {
        self.engine.begin(g);
    }

    fn matching(&mut self, g: &Graph) -> Matching {
        self.engine.greedy_seeded_matching(g)
    }

    fn observe_peel(&mut self, g: &Graph, peeled: &Matching, quantum: Weight) {
        self.engine.observe_peel(g, peeled, quantum);
    }
}

/// One peel of the WRGP loop: the matched edges and the uniform quantum
/// every one of them transmitted.
#[derive(Debug, Clone)]
pub struct Peel {
    /// Matched edge ids (in the peeled graph's id space).
    pub edges: Vec<EdgeId>,
    /// Ticks transmitted by every edge of the matching this step.
    pub quantum: Weight,
}

/// Runs the WRGP loop on `g`, consuming all its weight: the strategy picks
/// each peel's perfect matching and is told about every peel, so it can
/// carry matchings, thresholds and scratch buffers to the next one. `g`
/// must be weight-regular with equal side sizes (every isolated node has
/// weight 0 only when the whole graph is empty).
///
/// # Panics
///
/// Panics if the invariant breaks (no perfect matching found on a non-empty
/// graph) — that indicates the input was not weight-regular.
pub fn peel_all_incremental<S: MatchingStrategy>(g: &mut Graph, strategy: &mut S) -> Vec<Peel> {
    strategy.begin(g);
    let mut peels = Vec::new();
    let side = g.left_count();
    while !g.is_empty() {
        counters::incr(Counter::Peels);
        let m = strategy.matching(g);
        assert_eq!(
            m.len(),
            side,
            "WRGP invariant violated: no perfect matching in a {}-node side graph \
             ({} live edges) — input was not weight-regular",
            side,
            g.edge_count()
        );
        let quantum = m.min_weight(g).expect("non-empty matching");
        debug_assert!(quantum > 0);
        for &e in m.edges() {
            g.decrease_weight(e, quantum);
        }
        strategy.observe_peel(g, &m, quantum);
        peels.push(Peel {
            edges: m.into_edges(),
            quantum,
        });
    }
    peels
}

#[cfg(test)]
mod tests {
    use super::*;
    use bipartite::properties;

    fn regular_4cycle() -> Graph {
        // Figure 4-style example: 2x2 cycle, node weight 5 everywhere.
        let mut g = Graph::new(2, 2);
        g.add_edge(0, 0, 3);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 0, 2);
        g.add_edge(1, 1, 3);
        g
    }

    #[test]
    fn peels_consume_everything() {
        let mut g = regular_4cycle();
        let peels = peel_all_incremental(&mut g, &mut IncrementalAnyPerfect::new());
        assert!(g.is_empty());
        let volume: Weight = peels
            .iter()
            .map(|p| p.quantum * p.edges.len() as Weight)
            .sum();
        assert_eq!(volume, 10);
    }

    #[test]
    fn residual_stays_weight_regular() {
        let mut g = regular_4cycle();
        // One manual peel.
        let mut strategy = IncrementalAnyPerfect::new();
        strategy.begin(&g);
        let m = strategy.matching(&g);
        let q = m.min_weight(&g).unwrap();
        for &e in m.edges() {
            g.decrease_weight(e, q);
        }
        assert!(properties::is_weight_regular(&g));
    }

    #[test]
    fn total_transmission_equals_regular_weight() {
        // In a weight-regular graph of node weight R, WRGP transmits for
        // exactly R ticks: every step is square and every node always busy.
        let mut g = regular_4cycle();
        let peels = peel_all_incremental(&mut g, &mut IncrementalAnyPerfect::new());
        let total: Weight = peels.iter().map(|p| p.quantum).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn max_min_strategy_no_more_peels() {
        let build = || {
            let mut g = Graph::new(3, 3);
            // Weight-regular with node weight 6.
            g.add_edge(0, 0, 4);
            g.add_edge(0, 1, 2);
            g.add_edge(1, 1, 4);
            g.add_edge(1, 2, 2);
            g.add_edge(2, 2, 4);
            g.add_edge(2, 0, 2);
            g
        };
        let p_any = peel_all_incremental(&mut build(), &mut IncrementalAnyPerfect::new());
        let p_mm = peel_all_incremental(&mut build(), &mut MaxMinPerfect);
        assert!(p_mm.len() <= p_any.len());
        // Both transmit exactly R = 6.
        assert_eq!(p_mm.iter().map(|p| p.quantum).sum::<Weight>(), 6);
        assert_eq!(p_any.iter().map(|p| p.quantum).sum::<Weight>(), 6);
    }

    #[test]
    fn empty_graph_no_peels() {
        let mut g = Graph::new(0, 0);
        assert!(peel_all_incremental(&mut g, &mut IncrementalAnyPerfect::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "WRGP invariant violated")]
    fn irregular_graph_panics() {
        // Not weight-regular: left 1 is isolated.
        let mut g = Graph::new(2, 2);
        g.add_edge(0, 0, 3);
        g.add_edge(0, 1, 3);
        peel_all_incremental(&mut g, &mut IncrementalAnyPerfect::new());
    }

    #[test]
    fn random_regular_graphs_peel_cleanly() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // Build random weight-regular graphs as unions of random perfect
        // matchings with uniform weights.
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..100 {
            let n = rng.gen_range(1..8);
            let layers = rng.gen_range(1..5);
            let mut g = Graph::new(n, n);
            let mut expected_r: Weight = 0;
            for _ in 0..layers {
                let w: Weight = rng.gen_range(1..10);
                expected_r += w;
                // Random permutation as a perfect matching.
                let mut perm: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    perm.swap(i, rng.gen_range(0..=i));
                }
                for (l, &r) in perm.iter().enumerate() {
                    g.add_edge(l, r, w);
                }
            }
            assert_eq!(properties::regular_weight(&g), Some(expected_r));
            let peels = peel_all_incremental(&mut g, &mut MaxMinPerfect);
            let total: Weight = peels.iter().map(|p| p.quantum).sum();
            assert_eq!(total, expected_r, "transmission equals node weight");
        }
    }
}
