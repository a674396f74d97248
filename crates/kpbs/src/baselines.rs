//! Baseline schedulers the paper compares against (or that bracket the
//! design space in the ablation benches).
//!
//! The *TCP brute-force* baseline of Section 5.2 is not a K-PBS schedule at
//! all (it violates the 1-port and `k` constraints on purpose) — it lives in
//! the `flowsim` crate. The baselines here are feasible schedules:
//!
//! * [`sequential`] — one message per step, no preemption (what `k = 1`
//!   forces; also the trivially correct strawman),
//! * [`nonpreemptive_list`] — list scheduling of whole messages, heaviest
//!   first, at most `k` per step (the classic SS/TDMA-style heuristic \[18\]),
//! * [`preemptive_greedy`] — GGP's peeling applied directly to the raw graph
//!   without the weight-regular embedding: greedy maximal matchings capped
//!   at `k` edges, quantum = minimum weight. An ablation of how much the
//!   regularisation actually buys.

use crate::problem::Instance;
use crate::schedule::{Schedule, Step, Transfer};
use bipartite::{greedy, EdgeId, Weight};

/// One message per step, in edge-id order, no preemption.
pub fn sequential(inst: &Instance) -> Schedule {
    let mut s = Schedule::new(inst.beta);
    for (e, _, _, w) in inst.graph.edges() {
        s.steps.push(Step {
            transfers: vec![Transfer { edge: e, amount: w }],
        });
    }
    s
}

/// Non-preemptive list scheduling: repeatedly build a maximal matching by
/// decreasing weight, truncate to the `k` heaviest edges, transmit each
/// selected message entirely (the step lasts as long as its heaviest
/// message), remove them, repeat.
pub fn nonpreemptive_list(inst: &Instance) -> Schedule {
    let k = inst.effective_k();
    let mut g = inst.graph.clone();
    let mut s = Schedule::new(inst.beta);
    while !g.is_empty() {
        let mut edges = greedy::maximal_matching_heaviest_first(&g).into_edges();
        edges.truncate(k);
        let transfers: Vec<Transfer> = edges
            .iter()
            .map(|&e| Transfer {
                edge: e,
                amount: g.weight(e),
            })
            .collect();
        for &e in &edges {
            g.remove_edge(e);
        }
        s.steps.push(Step { transfers });
    }
    s
}

/// Preemptive greedy peeling without the weight-regular embedding: each step
/// takes a heaviest-first maximal matching truncated to `k` edges and
/// transmits the *minimum* remaining weight of the selection on all of them.
pub fn preemptive_greedy(inst: &Instance) -> Schedule {
    let k = inst.effective_k();
    let mut g = inst.graph.clone();
    let mut s = Schedule::new(inst.beta);
    while !g.is_empty() {
        let mut edges: Vec<EdgeId> = greedy::maximal_matching_heaviest_first(&g).into_edges();
        edges.truncate(k);
        let quantum: Weight = edges.iter().map(|&e| g.weight(e)).min().unwrap();
        let transfers: Vec<Transfer> = edges
            .iter()
            .map(|&e| Transfer {
                edge: e,
                amount: quantum,
            })
            .collect();
        for &e in &edges {
            g.decrease_weight(e, quantum);
        }
        s.steps.push(Step { transfers });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::Algo;
    use crate::lower_bound::lower_bound;
    use bipartite::generate::{random_graph, GraphParams};
    use bipartite::Graph;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn sample() -> Instance {
        let mut g = Graph::new(3, 3);
        g.add_edge(0, 0, 5);
        g.add_edge(0, 1, 3);
        g.add_edge(1, 1, 8);
        g.add_edge(2, 1, 4);
        g.add_edge(2, 2, 4);
        Instance::new(g, 3, 1)
    }

    #[test]
    fn sequential_is_valid_and_costs_sum() {
        let inst = sample();
        let s = sequential(&inst);
        s.validate(&inst).unwrap();
        assert_eq!(s.cost(), (1 + 5) + (1 + 3) + (1 + 8) + (1 + 4) + (1 + 4));
    }

    #[test]
    fn list_scheduling_valid_and_respects_k() {
        let inst = sample();
        let s = nonpreemptive_list(&inst);
        s.validate(&inst).unwrap();
        assert!(s.max_width() <= 3);
        // Non-preemptive: every edge appears exactly once.
        let slices: usize = s.steps.iter().map(|st| st.transfers.len()).sum();
        assert_eq!(slices, 5);
    }

    #[test]
    fn preemptive_greedy_valid() {
        let inst = sample();
        let s = preemptive_greedy(&inst);
        s.validate(&inst).unwrap();
        assert!(s.cost() >= lower_bound(&inst));
    }

    #[test]
    fn baselines_on_random_instances() {
        let mut rng = SmallRng::seed_from_u64(5);
        let params = GraphParams {
            max_nodes_per_side: 7,
            max_edges: 30,
            weight_range: (1, 12),
        };
        for _ in 0..100 {
            let g = random_graph(&mut rng, &params);
            let k = rng.gen_range(1..=g.left_count().min(g.right_count()));
            let inst = Instance::new(g, k, rng.gen_range(0..3));
            for algo in [Algo::Sequential, Algo::List, Algo::Greedy] {
                algo.plan(&inst)
                    .validate(&inst)
                    .unwrap_or_else(|e| panic!("{algo} invalid: {e}"));
            }
        }
    }
}
