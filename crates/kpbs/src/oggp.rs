//! OGGP — the Optimised Generic Graph Peeling algorithm (Section 4.3).
//!
//! Identical to GGP except for the matching extracted at each peel: OGGP
//! picks the perfect matching whose *minimum* edge weight is maximal
//! (Figure 6), so each step is as long as possible and fewer steps (hence
//! fewer β setups) are paid. Both run GGP's one pipeline,
//! [`schedule_with`], with a different strategy. Still a 2-approximation — any OGGP solution is
//! also a GGP solution — but empirically much closer to the lower bound
//! (Figures 7–9 of the paper).

use crate::ggp::schedule_with;
use crate::problem::Instance;
use crate::schedule::Schedule;
use crate::wrgp::{IncrementalMaxMin, MaxMinPerfect};

/// Schedules `inst` with the Optimised Generic Graph Peeling algorithm.
///
/// Runs on the incremental peeling engine, which produces the exact same
/// schedule as the from-scratch [`oggp_reference`] (the per-peel bottleneck
/// matching is computed by the same canonical filtered solve) while reusing
/// the cardinality witness, threshold bound and scratch buffers across
/// peels.
pub fn oggp(inst: &Instance) -> Schedule {
    let _s = telemetry::span("kpbs.oggp");
    schedule_with(inst, &mut IncrementalMaxMin::new())
}

/// OGGP with one cold bottleneck matching per peel ([`MaxMinPerfect`]),
/// through the same pipeline and peel loop as [`oggp`]. Kept as the
/// reference oracle of the differential and isolation tests; agrees with
/// [`oggp`] schedule for schedule.
pub fn oggp_reference(inst: &Instance) -> Schedule {
    let _s = telemetry::span("kpbs.oggp_reference");
    schedule_with(inst, &mut MaxMinPerfect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ggp::ggp;
    use crate::lower_bound::lower_bound;
    use bipartite::generate::{random_graph, GraphParams};
    use bipartite::Graph;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn valid_on_figure2_graph() {
        let mut g = Graph::new(3, 3);
        g.add_edge(0, 0, 5);
        g.add_edge(0, 1, 3);
        g.add_edge(1, 1, 8);
        g.add_edge(2, 1, 4);
        g.add_edge(2, 2, 4);
        let inst = Instance::new(g, 3, 1);
        let s = oggp(&inst);
        s.validate(&inst).unwrap();
        let lb = lower_bound(&inst);
        assert!(s.cost() >= lb && s.cost() <= 2 * lb);
    }

    #[test]
    fn oggp_never_more_steps_than_ggp_on_regular_inputs() {
        // On weight-regular inputs with k = n the peeling is pure; the
        // bottleneck matching can only lengthen quanta, reducing peels.
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let n = rng.gen_range(2..7);
            let mut g = Graph::new(n, n);
            for layer in 0..3 {
                let w = rng.gen_range(1..8) + layer;
                let mut perm: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    perm.swap(i, rng.gen_range(0..=i));
                }
                for (l, &r) in perm.iter().enumerate() {
                    g.add_edge(l, r, w);
                }
            }
            let inst = Instance::new(g, n, 1);
            let a = ggp(&inst);
            let b = oggp(&inst);
            a.validate(&inst).unwrap();
            b.validate(&inst).unwrap();
            assert!(
                b.num_steps() <= a.num_steps() + 1,
                "OGGP used {} steps, GGP {}",
                b.num_steps(),
                a.num_steps()
            );
        }
    }

    #[test]
    fn oggp_cost_not_worse_on_random_instances() {
        // Across a random campaign OGGP's mean cost must not exceed GGP's
        // (Figure 7): check the aggregate, not each single instance.
        let mut rng = SmallRng::seed_from_u64(11);
        let params = GraphParams {
            max_nodes_per_side: 8,
            max_edges: 40,
            weight_range: (1, 20),
        };
        let (mut total_ggp, mut total_oggp) = (0u64, 0u64);
        for _ in 0..150 {
            let g = random_graph(&mut rng, &params);
            let k = rng.gen_range(1..=g.left_count().min(g.right_count()));
            let inst = Instance::new(g, k, 1);
            let a = ggp(&inst);
            let b = oggp(&inst);
            a.validate(&inst).unwrap();
            b.validate(&inst).unwrap();
            total_ggp += a.cost();
            total_oggp += b.cost();
        }
        assert!(
            total_oggp <= total_ggp,
            "OGGP total {total_oggp} worse than GGP total {total_ggp}"
        );
    }

    #[test]
    fn oggp_prefers_long_steps() {
        // Two disjoint heavy edges plus a light one sharing a node: the
        // bottleneck matching transmits the heavy pair at full length first.
        let mut g = Graph::new(2, 2);
        g.add_edge(0, 0, 10);
        g.add_edge(1, 1, 10);
        g.add_edge(0, 1, 1);
        let inst = Instance::new(g, 2, 1);
        let s = oggp(&inst);
        s.validate(&inst).unwrap();
        let lb = lower_bound(&inst);
        // W(G) = 11, Δ = 2 → lb = 11 + 2 = 13; OGGP should reach it.
        assert_eq!(lb, 13);
        assert_eq!(s.cost(), lb, "OGGP finds the optimal 2-step schedule");
    }
}
