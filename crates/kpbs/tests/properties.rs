//! Property-based tests of the scheduler pipeline's internal stages:
//! normalisation, regularisation, peeling, and the alternative schedulers.

use bipartite::{properties, Graph};
use kpbs::normalize::normalize;
use kpbs::regularize::{regularize, EdgeKind};
use kpbs::relax::{relax_k, relax_unbounded};
use kpbs::{ggp, oggp, Instance};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn normalization_rounds_up_and_bounds(inst in instance_strategy(8, 25, 40, 6)) {
        let n = normalize(&inst);
        let unit = if inst.beta > 0 { inst.beta } else { 1 };
        prop_assert_eq!(n.unit, unit);
        for e in inst.graph.edge_ids() {
            let w = inst.graph.weight(e);
            let wn = n.graph.weight(e);
            prop_assert!(wn >= 1);
            prop_assert!(wn * unit >= w, "normalised slot must cover the weight");
            prop_assert!(wn * unit < w + unit, "rounding adds less than one unit");
        }
    }

    #[test]
    fn regularize_invariants(inst in instance_strategy(8, 25, 30, 0)) {
        let k = inst.effective_k();
        let reg = regularize(&inst.graph, k);
        // Weight-regular, equal sides.
        prop_assert_eq!(
            properties::regular_weight(&reg.graph),
            Some(reg.regular_weight)
        );
        prop_assert_eq!(reg.graph.left_count(), reg.graph.right_count());
        // R = max(W, ceil(P/k)).
        let w = properties::max_node_weight(&inst.graph);
        let p = properties::total_weight(&inst.graph);
        prop_assert_eq!(
            reg.regular_weight,
            w.max(p.div_ceil(k as u64))
        );
        // Total synthetic weight accounting: P(J) = R * (|V1| + |V2| - k)
        // ... per side: sum over left nodes = R * |left| and P(J) counts it
        // once.
        let side = reg.graph.left_count() as u64;
        prop_assert_eq!(properties::total_weight(&reg.graph), reg.regular_weight * side);
        // Real edges are preserved verbatim.
        let mut real = 0;
        for e in reg.graph.edge_ids() {
            if let EdgeKind::Real(o) = reg.kind(e) {
                real += 1;
                prop_assert_eq!(reg.graph.weight(e), inst.graph.weight(o));
            }
        }
        prop_assert_eq!(real, inst.graph.edge_count());
    }

    #[test]
    fn relaxation_faster_than_barriers(inst in instance_strategy(8, 25, 25, 4)) {
        let s = oggp(&inst);
        let k = inst.effective_k();
        let bounded = relax_k(&s, &inst.graph, k);
        let unbounded = relax_unbounded(&s, &inst.graph);
        prop_assert!(bounded.makespan <= s.cost());
        prop_assert!(unbounded.makespan <= bounded.makespan);
        prop_assert!(bounded.peak_concurrency <= k);
    }

    #[test]
    fn schedulers_agree_on_volume(inst in instance_strategy(7, 20, 25, 3)) {
        let total = inst.total_weight();
        prop_assert_eq!(ggp(&inst).volume(), total);
        prop_assert_eq!(oggp(&inst).volume(), total);
    }

    #[test]
    fn cost_monotone_in_beta(inst in instance_strategy(7, 20, 25, 0)) {
        // Raising β can only raise the (analytic) cost of the OGGP result.
        let cheap = oggp(&Instance::new(inst.graph.clone(), inst.k, 0)).cost();
        let costly = oggp(&Instance::new(inst.graph.clone(), inst.k, 10)).cost();
        prop_assert!(costly >= cheap);
    }
}

#[test]
fn relaxation_composes_with_oggp_on_testbed_scale() {
    use bipartite::generate::complete_graph;
    use rand::{rngs::SmallRng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(72);
    let g = complete_graph(&mut rng, 10, 10, (10, 50));
    let inst = Instance::new(g.clone(), 5, 2);
    let s = oggp(&inst);
    let relaxed = relax_k(&s, &g, 5);
    assert!(relaxed.makespan <= s.cost());
    assert!(relaxed.peak_concurrency <= 5);
    // The saving is real but bounded: barriers are cheap in this regime
    // (the paper's observation that "barriers cost extremely little").
    let saving = 1.0 - relaxed.makespan as f64 / s.cost() as f64;
    assert!(
        (0.0..0.5).contains(&saving),
        "implausible barrier saving {saving}"
    );
}
