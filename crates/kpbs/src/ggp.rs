//! GGP — the Generic Graph Peeling algorithm (Section 4.2, Figure 5).
//!
//! Pipeline: β-normalise the weights, embed into a weight-regular graph
//! (Section 4.2.2), peel it with WRGP, keep the real slices of each peel,
//! and map quanta back to real ticks. GGP is a 2-approximation of K-PBS
//! (Theorem 1) with complexity `O((m+n)²·sqrt(n))`.
//!
//! [`schedule_with`] is that pipeline for GGP and OGGP alike: the two differ
//! only in the [`MatchingStrategy`] each peel runs.

use crate::normalize::{denormalize, normalize};
use crate::problem::Instance;
use crate::regularize::{regularize, EdgeKind};
use crate::schedule::{Schedule, Step, Transfer};
use crate::wrgp::{
    peel_all_incremental, IncrementalAnyPerfect, IncrementalGreedySeeded, MatchingStrategy, Peel,
};

/// Schedules `inst` with the Generic Graph Peeling algorithm.
///
/// The result is always feasible (see [`crate::validate`]) and costs at most
/// twice the optimum. Runs on the incremental peeling engine: each peel's
/// matching is grown from the survivors of the previous one.
pub fn ggp(inst: &Instance) -> Schedule {
    let _s = telemetry::span("kpbs.ggp");
    schedule_with(inst, &mut IncrementalAnyPerfect::new())
}

/// GGP with a heaviest-first-seeded matching: the same algorithm (and
/// guarantee), but with the open matching choice biased towards heavy
/// edges. Sits between plain GGP and OGGP in practice — see the `ablation`
/// bench and EXPERIMENTS.md.
pub fn ggp_seeded(inst: &Instance) -> Schedule {
    let _s = telemetry::span("kpbs.ggp_seeded");
    schedule_with(inst, &mut IncrementalGreedySeeded::new())
}

/// The one GGP/OGGP pipeline (Fig. 5 steps 1–4), parameterised by the
/// per-peel matching strategy. Used by [`ggp`], [`ggp_seeded`],
/// [`crate::oggp::oggp`], [`crate::oggp::oggp_reference`] and
/// [`crate::delta::DeltaPlanner`].
pub fn schedule_with<S: MatchingStrategy>(inst: &Instance, strategy: &mut S) -> Schedule {
    if inst.is_trivial() {
        return Schedule::new(inst.beta);
    }
    // Step 1 (Fig. 5): normalise weights by β, rounding up.
    let norm = {
        let _s = telemetry::span("kpbs.normalize");
        normalize(inst)
    };
    // Step 2: add nodes and edges to build a weight-regular graph J over the
    // traffic-carrying nodes.
    let reg = {
        let _s = telemetry::span("kpbs.regularize");
        regularize(&norm.graph, norm.k)
    };
    // Step 3: peel J with WRGP, consuming it in place (extraction only needs
    // the edge kinds, so the embedding is never cloned).
    let mut work = reg.graph;
    let peels = {
        let _s = telemetry::span("kpbs.peel");
        peel_all_incremental(&mut work, strategy)
    };
    let _s = telemetry::span("kpbs.extract");
    extract(inst, &reg.kinds, peels)
}

/// Step 4 of Fig. 5: extract R — keep only the slices of real edges (steps
/// made only of synthetic edges carry no communication and are dropped),
/// then map normalised quanta back to real ticks. Only the edge kinds of the
/// embedding are needed here, which is what lets the callers feed the regular
/// graph itself to the peeling loop by move.
fn extract(inst: &Instance, kinds: &[EdgeKind], peels: Vec<Peel>) -> Schedule {
    let mut normalised = Schedule::new(1);
    for peel in peels {
        let transfers: Vec<Transfer> = peel
            .edges
            .iter()
            .filter_map(|&e| match kinds[e.index()] {
                EdgeKind::Real(o) => Some(o),
                _ => None,
            })
            .map(|origin| Transfer {
                edge: origin,
                amount: peel.quantum,
            })
            .collect();
        if !transfers.is_empty() {
            normalised.steps.push(Step { transfers });
        }
    }
    denormalize(&normalised, inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bound::lower_bound;
    use bipartite::{Graph, Weight};

    fn cost_of(g: Graph, k: usize, beta: Weight) -> (Weight, Weight) {
        let inst = Instance::new(g, k, beta);
        let s = ggp(&inst);
        s.validate(&inst).unwrap_or_else(|e| panic!("invalid: {e}"));
        (s.cost(), lower_bound(&inst))
    }

    #[test]
    fn trivial_instance_empty_schedule() {
        let inst = Instance::new(Graph::new(3, 3), 2, 1);
        let s = ggp(&inst);
        assert_eq!(s.num_steps(), 0);
        assert_eq!(s.cost(), 0);
    }

    #[test]
    fn single_edge_one_step() {
        let mut g = Graph::new(1, 1);
        g.add_edge(0, 0, 10);
        let inst = Instance::new(g, 1, 2);
        let s = ggp(&inst);
        s.validate(&inst).unwrap();
        assert_eq!(s.num_steps(), 1);
        assert_eq!(s.cost(), 12);
    }

    #[test]
    fn k_one_sequential() {
        // With k = 1 every edge goes alone; an optimal schedule never splits
        // (splitting only adds setups), so cost = Σ(β + w).
        let mut g = Graph::new(2, 2);
        g.add_edge(0, 0, 4);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 1, 3);
        let (cost, lb) = cost_of(g, 1, 1);
        assert_eq!(lb, 4 + 2 + 3 + 3);
        assert!(cost >= lb);
        assert!(cost <= 2 * lb);
    }

    #[test]
    fn parallel_friendly_instance() {
        // Disjoint pairs: everything fits one step when k allows.
        let mut g = Graph::new(3, 3);
        g.add_edge(0, 0, 5);
        g.add_edge(1, 1, 5);
        g.add_edge(2, 2, 5);
        let inst = Instance::new(g, 3, 1);
        let s = ggp(&inst);
        s.validate(&inst).unwrap();
        assert_eq!(s.num_steps(), 1, "perfectly parallel instance: one step");
        assert_eq!(s.cost(), 6);
    }

    #[test]
    fn figure2_graph_within_bounds() {
        // The graph of Figure 2: edges (weights) between 3 senders and 3
        // receivers; k = 3, β = 1. The paper's hand solution costs 15.
        let mut g = Graph::new(3, 3);
        g.add_edge(0, 0, 5);
        g.add_edge(0, 1, 3);
        g.add_edge(1, 1, 8);
        g.add_edge(2, 1, 4);
        g.add_edge(2, 2, 4);
        let inst = Instance::new(g, 3, 1);
        let s = ggp(&inst);
        s.validate(&inst).unwrap();
        let lb = lower_bound(&inst);
        assert!(s.cost() >= lb);
        assert!(
            s.cost() <= 2 * lb,
            "cost {} exceeds twice the bound {}",
            s.cost(),
            lb
        );
    }

    #[test]
    fn respects_k_width() {
        let mut g = Graph::new(4, 4);
        for i in 0..4 {
            g.add_edge(i, i, 7);
        }
        let inst = Instance::new(g, 2, 1);
        let s = ggp(&inst);
        s.validate(&inst).unwrap();
        assert!(s.max_width() <= 2);
    }

    #[test]
    fn beta_zero_supported() {
        let mut g = Graph::new(2, 2);
        g.add_edge(0, 0, 3);
        g.add_edge(0, 1, 5);
        g.add_edge(1, 0, 2);
        let inst = Instance::new(g, 2, 0);
        let s = ggp(&inst);
        s.validate(&inst).unwrap();
        assert!(s.cost() >= lower_bound(&inst));
    }

    #[test]
    fn large_beta_discourages_splitting() {
        // β much larger than any weight: normalisation maps every weight to
        // 1 unit, so no edge is ever split.
        let mut g = Graph::new(2, 2);
        g.add_edge(0, 0, 3);
        g.add_edge(0, 1, 5);
        g.add_edge(1, 1, 2);
        let inst = Instance::new(g, 2, 100);
        let s = ggp(&inst);
        s.validate(&inst).unwrap();
        // Each edge appears in exactly one step.
        let slices: usize = s.steps.iter().map(|st| st.transfers.len()).sum();
        assert_eq!(slices, 3, "no preemption when β dominates");
    }

    #[test]
    fn random_instances_valid_and_bounded() {
        use bipartite::generate::{random_graph, GraphParams};
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(77);
        let params = GraphParams {
            max_nodes_per_side: 10,
            max_edges: 60,
            weight_range: (1, 20),
        };
        for _ in 0..200 {
            let g = random_graph(&mut rng, &params);
            let k = rng.gen_range(1..=g.left_count().min(g.right_count()));
            let beta = rng.gen_range(0..4);
            let inst = Instance::new(g, k, beta);
            let s = ggp(&inst);
            s.validate(&inst).unwrap_or_else(|e| panic!("invalid: {e}"));
            assert!(s.cost() >= lower_bound(&inst));
        }
    }
}
