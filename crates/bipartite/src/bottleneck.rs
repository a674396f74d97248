//! Max–min (bottleneck) matchings: maximum-cardinality matchings whose
//! *minimum* edge weight is as large as possible.
//!
//! This is the matching OGGP plugs into the peeling loop (Section 4.3,
//! Figure 6 of the paper): the size of a communication step is the smallest
//! communication in its matching, so maximising that minimum lengthens steps
//! and reduces their number.
//!
//! [`max_min_matching`] is the from-scratch solver: a threshold binary
//! search over the distinct edge weights using Hopcroft–Karp,
//! `O(m·sqrt(n)·log m)`, checked against exhaustive search by the property
//! tests. The planners run the incremental engine instead
//! ([`crate::engine::MatchingEngine::max_min_matching`]), whose cold descent
//! is the paper's own Fig. 6 sweep: insert edges in decreasing weight order
//! from the empty graph, growing a matching by augmentation, until it
//! reaches full cardinality. Both end with [`canonical_matching_at`], so they
//! return the same matching, and the cold solver is the engine's oracle.

use crate::csr::{CsrAdj, SearchState, NIL};
use crate::graph::{EdgeId, Graph, Weight};
use crate::hopcroft_karp;
use crate::matching::Matching;
use telemetry::counters::{self, Counter};

/// Returns a maximum-cardinality matching of `g` whose minimum edge weight is
/// maximal, via threshold binary search. Empty graph yields an empty matching.
///
/// ```
/// use bipartite::{Graph, bottleneck};
///
/// let mut g = Graph::new(2, 2);
/// g.add_edge(0, 0, 1);
/// g.add_edge(0, 1, 5); // the heavy perfect matching: {(0,1), (1,0)}
/// g.add_edge(1, 0, 4);
/// g.add_edge(1, 1, 1);
/// let m = bottleneck::max_min_matching(&g);
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.min_weight(&g), Some(4));
/// ```
pub fn max_min_matching(g: &Graph) -> Matching {
    // The initial maximum matching is both the cardinality witness and the
    // seed of the first threshold probe: each probe then only has to repair
    // the carried matching, not rebuild it.
    let witness = hopcroft_karp::maximum_matching(g);
    let target = witness.len();
    if target == 0 {
        return Matching::new();
    }
    // Distinct weights, ascending. The predicate "edges >= w admit a matching
    // of size `target`" is monotone decreasing in w; find the largest w
    // where it still holds.
    let mut weights: Vec<Weight> = g.edges().map(|(_, _, _, w)| w).collect();
    weights.sort_unstable();
    weights.dedup();
    // Carry the latest full-cardinality matching from probe to probe; its
    // edges passing the next probe's filter stay a valid matching there.
    let mut carry = witness;
    let (mut lo, mut hi) = (0usize, weights.len() - 1); // invariant: lo feasible
    while lo < hi {
        counters::incr(Counter::ThresholdProbes);
        let mid = (lo + hi).div_ceil(2);
        let t = weights[mid];
        let probe = hopcroft_karp::maximum_matching_where_seeded(g, |e| g.weight(e) >= t, &carry);
        if probe.len() == target {
            lo = mid;
            carry = probe;
        } else {
            hi = mid - 1;
        }
    }
    canonical_matching_at(g, weights[lo])
}

/// The canonical matching returned at threshold `t`: a heaviest-first greedy
/// seed over the edges of weight `>= t` (ties by ascending edge id),
/// augmented to maximum cardinality over the ascending-id filtered
/// adjacency. This is the deterministic function of `(g, t)` that both
/// [`max_min_matching`] and the incremental engine's max–min path end with,
/// so the two return bit-identical matchings — and it is chosen so the
/// engine can compute it from state it already maintains: the greedy seed
/// reads straight off its heaviest-first order, and its probe adjacency
/// holds exactly the filtered edge set with rows kept in this ascending-id
/// order (`CsrAdj::insert_by_id` preserves it across the sweep). The greedy
/// seed is nearly maximum on the dense graphs the peeling loop produces, so
/// the augmentation only repairs a remainder instead of rebuilding the
/// whole matching breadth-first from scratch.
pub fn canonical_matching_at(g: &Graph, t: Weight) -> Matching {
    let nl = g.left_count();
    let nr = g.right_count();
    let mut adj = CsrAdj::new();
    adj.build_where(g, |e| g.weight(e) >= t);
    let mut order: Vec<(EdgeId, usize, usize, Weight)> =
        g.edges().filter(|&(_, _, _, w)| w >= t).collect();
    order.sort_unstable_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)));
    let mut match_left: Vec<u32> = vec![NIL; nl];
    let mut match_right: Vec<u32> = vec![NIL; nr];
    let mut via_left: Vec<EdgeId> = vec![EdgeId(0); nl];
    for &(id, l, r, _) in &order {
        if match_left[l] == NIL && match_right[r] == NIL {
            match_left[l] = r as u32;
            match_right[r] = l as u32;
            via_left[l] = id;
        }
    }
    let mut search = SearchState::new();
    search.prepare(nl);
    hopcroft_karp::kuhn_to_maximum(
        &adj,
        &mut match_left,
        &mut match_right,
        &mut via_left,
        &mut search,
    );
    hopcroft_karp::gather(&match_left, &via_left)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(2, 2);
        assert!(max_min_matching(&g).is_empty());
    }

    #[test]
    fn prefers_heavy_perfect_matching() {
        // Two perfect matchings: {1,1} (min 1) and {5,4} (min 4).
        let mut g = Graph::new(2, 2);
        g.add_edge(0, 0, 1);
        g.add_edge(0, 1, 5);
        g.add_edge(1, 0, 4);
        g.add_edge(1, 1, 1);
        let m = max_min_matching(&g);
        assert_eq!(m.len(), 2);
        assert_eq!(m.min_weight(&g), Some(4));
    }

    #[test]
    fn cardinality_never_sacrificed() {
        // The only maximum matching must use the weight-1 edge; bottleneck
        // matching keeps full cardinality even though a single heavy edge
        // would have a larger minimum.
        let mut g = Graph::new(2, 2);
        g.add_edge(0, 0, 100);
        g.add_edge(1, 0, 50); // shares right 0 with the heavy edge
        g.add_edge(1, 1, 1);
        let m = max_min_matching(&g);
        assert_eq!(m.len(), 2);
        assert_eq!(m.min_weight(&g), Some(1));
    }

    #[test]
    fn single_edge() {
        let mut g = Graph::new(1, 1);
        g.add_edge(0, 0, 7);
        let m = max_min_matching(&g);
        assert_eq!(m.len(), 1);
        assert_eq!(m.min_weight(&g), Some(7));
    }

    #[test]
    fn agreement_on_random_graphs() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..200 {
            let nl = rng.gen_range(1..8);
            let nr = rng.gen_range(1..8);
            let mut g = Graph::new(nl, nr);
            let m = rng.gen_range(0..=nl * nr * 2);
            for _ in 0..m {
                g.add_edge(
                    rng.gen_range(0..nl),
                    rng.gen_range(0..nr),
                    rng.gen_range(1..100),
                );
            }
            let a = max_min_matching(&g);
            assert_eq!(
                a.len(),
                hopcroft_karp::maximum_matching(&g).len(),
                "cardinality must agree"
            );
            assert!(a.is_valid(&g));
        }
    }

    #[test]
    fn all_equal_weights_is_any_maximum_matching() {
        let mut g = Graph::new(3, 3);
        for l in 0..3 {
            for r in 0..3 {
                g.add_edge(l, r, 9);
            }
        }
        let m = max_min_matching(&g);
        assert_eq!(m.len(), 3);
        assert_eq!(m.min_weight(&g), Some(9));
    }
}
