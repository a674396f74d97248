//! Differential tests of the hierarchical planner against flat OGGP: on
//! small instances (n ≤ 24) every hierarchical schedule must be feasible,
//! deliver exactly the input traffic (checked through the residual-matrix
//! machinery the executor uses), and stay within a fixed cost factor of the
//! flat plan; with one block the pipeline must reproduce flat OGGP
//! byte-for-byte, and with one channel and several blocks it must attain
//! the lower bound. Extreme inputs (k=1, β=0, empty, 1×n, more blocks than
//! nodes, one active pair) must validate with the same schedule for every
//! worker count.

use bipartite::Graph;
use kpbs::hier::{hier, hier_report, HierConfig, HierReport};
use kpbs::residual::residual_matrix;
use kpbs::validate::validate;
use kpbs::{lower_bound, oggp, Instance, TrafficMatrix};
use proptest::prelude::*;

/// The fixed factor hierarchy may lose to flat OGGP by on tiny instances.
/// Macro-step serialisation costs extra β-steps and narrower per-block
/// widths; in two campaigns of 20 000 draws of this file's instance
/// family the worst hier / flat ratio read 3.40 and 3.47 (see
/// `BENCH_quality.json` for the large-n ratios, ~1.9× the lower bound).
const COST_FACTOR: u64 = 4;

/// Random small instances plus a block count: sides up to `max_side`, a
/// non-empty batch of weighted messages, `k`, a small β and `1..=max_blocks`
/// requested blocks (the planner clamps to the sides on its own).
fn instance_strategy(
    max_side: usize,
    max_msgs: usize,
    max_ticks: u64,
    max_beta: u64,
    max_blocks: usize,
) -> impl Strategy<Value = (Instance, usize)> {
    (1..=max_side, 1..=max_side)
        .prop_flat_map(move |(n1, n2)| {
            let msgs = proptest::collection::vec((0..n1, 0..n2, 1..=max_ticks), 1..=max_msgs);
            (
                Just((n1, n2)),
                1..=n1.min(n2),
                0..=max_beta,
                1..=max_blocks,
                msgs,
            )
        })
        .prop_map(|((n1, n2), k, beta, blocks, msgs)| {
            let mut g = Graph::new(n1, n2);
            for (l, r, w) in msgs {
                g.add_edge(l, r, w);
            }
            (Instance::new(g, k, beta), blocks)
        })
}

/// The instance's traffic aggregated per (sender, receiver) — parallel
/// edges fold together, exactly how a traffic matrix sees them.
fn traffic_of(inst: &Instance) -> TrafficMatrix {
    let mut t = TrafficMatrix::zeros(inst.graph.left_count(), inst.graph.right_count());
    for (_, l, r, w) in inst.graph.edges() {
        t.set(l, r, t.get(l, r) + w);
    }
    t
}

/// What the schedule actually moves per (sender, receiver).
fn delivered_by(inst: &Instance, schedule: &kpbs::Schedule) -> TrafficMatrix {
    let mut t = TrafficMatrix::zeros(inst.graph.left_count(), inst.graph.right_count());
    for step in &schedule.steps {
        for tr in &step.transfers {
            let (l, r) = (inst.graph.left_of(tr.edge), inst.graph.right_of(tr.edge));
            t.set(l, r, t.get(l, r) + tr.amount);
        }
    }
    t
}

/// Plans `inst` with the default worker count and with 1 and 8 workers:
/// every schedule validates and all three are byte-equal.
fn plan_jobs_invariant(case: &str, inst: &Instance, blocks: usize) -> HierReport {
    let report = hier_report(inst, &HierConfig::new(blocks));
    validate(inst, &report.schedule).unwrap_or_else(|e| panic!("{case}: {e}"));
    for jobs in [1usize, 8] {
        let s = hier(inst, &HierConfig::new(blocks).with_jobs(jobs));
        assert_eq!(
            s, report.schedule,
            "{case}: jobs={jobs} changed the schedule"
        );
    }
    report
}

/// A graph from `(sender, receiver, ticks)` triples.
fn graph(n1: usize, n2: usize, msgs: &[(usize, usize, u64)]) -> Graph {
    let mut g = Graph::new(n1, n2);
    for &(l, r, w) in msgs {
        g.add_edge(l, r, w);
    }
    g
}

/// Extreme inputs at the hierarchical planner's entry point.
#[test]
fn extreme_inputs_validate_and_are_jobs_invariant() {
    let spread: Vec<(usize, usize, u64)> = (0..40)
        .map(|i| (i * 7 % 12, i * 5 % 12, 1 + (i as u64 * 13) % 29))
        .collect();

    let r = plan_jobs_invariant("k=1", &Instance::new(graph(12, 12, &spread), 1, 2), 3);
    assert!(r.schedule.max_width() <= 1);
    plan_jobs_invariant("beta=0", &Instance::new(graph(12, 12, &spread), 4, 0), 3);

    for (n1, n2) in [(0usize, 0usize), (5, 5)] {
        let r = plan_jobs_invariant("empty", &Instance::new(Graph::new(n1, n2), 2, 1), 4);
        assert_eq!(r.schedule.num_steps(), 0);
        assert_eq!(r.active_pairs, 0);
    }

    let row: Vec<(usize, usize, u64)> = (0..9).map(|j| (0, j, 3 + j as u64)).collect();
    plan_jobs_invariant("1xn", &Instance::new(graph(1, 9, &row), 4, 1), 3);
    let col: Vec<(usize, usize, u64)> = row.iter().map(|&(l, r, w)| (r, l, w)).collect();
    plan_jobs_invariant("nx1", &Instance::new(graph(9, 1, &col), 4, 1), 3);

    let small: Vec<(usize, usize, u64)> = (0..6).map(|i| (i, (i + 1) % 6, 5)).collect();
    let r = plan_jobs_invariant("blocks>n", &Instance::new(graph(6, 6, &small), 3, 1), 20);
    assert!(r.blocks <= 6);

    let one_pair = Instance::new(graph(8, 8, &[(2, 6, 40), (2, 6, 15)]), 3, 1);
    let r = plan_jobs_invariant("single active pair", &one_pair, 4);
    assert_eq!(r.active_pairs, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every hierarchical schedule is a feasible K-PBS solution: 1-port
    /// matchings, width ≤ k, exact per-edge coverage — for any requested
    /// block count.
    #[test]
    fn hier_schedule_validates(
        (inst, blocks) in instance_strategy(24, 40, 30, 3, 8)
    ) {
        let s = hier(&inst, &HierConfig::new(blocks));
        prop_assert!(
            validate(&inst, &s).is_ok(),
            "blocks={blocks}: {:?}",
            validate(&inst, &s)
        );
        prop_assert!(s.cost() >= lower_bound(&inst));
    }

    /// The composed schedule delivers exactly the input traffic matrix:
    /// the residual (what the executor would still have to move) is zero.
    #[test]
    fn hier_delivers_exact_matrix(
        (inst, blocks) in instance_strategy(24, 40, 30, 3, 8)
    ) {
        let s = hier(&inst, &HierConfig::new(blocks));
        let residual = residual_matrix(&traffic_of(&inst), &delivered_by(&inst, &s));
        prop_assert_eq!(
            residual.total_bytes(), 0,
            "undelivered traffic with blocks={}", blocks
        );
    }

    /// The price of hierarchy is bounded: never more than a fixed factor
    /// over the flat OGGP plan of the same instance.
    #[test]
    fn hier_cost_within_factor_of_flat(
        (inst, blocks) in instance_strategy(24, 40, 30, 3, 8)
    ) {
        let h = hier(&inst, &HierConfig::new(blocks));
        let flat = oggp(&inst);
        prop_assert!(
            h.cost() <= COST_FACTOR * flat.cost(),
            "hier {} vs flat {} (blocks={})",
            h.cost(), flat.cost(), blocks
        );
    }

    /// With one channel and more than one block every pair is sent edge by
    /// edge, one per step, and the composed schedule costs `P + β·m`: the
    /// lower bound, so hier is optimal at `k = 1`.
    #[test]
    fn k_one_attains_the_lower_bound(
        (inst, blocks) in instance_strategy(24, 40, 30, 3, 8)
    ) {
        let inst = Instance::new(inst.graph, 1, inst.beta);
        let r = hier_report(&inst, &HierConfig::new(blocks.max(2)));
        prop_assume!(r.blocks > 1);
        prop_assert!(validate(&inst, &r.schedule).is_ok());
        prop_assert_eq!(r.schedule.cost(), lower_bound(&inst));
    }

    /// One block degenerates to the flat pipeline: the schedules are
    /// byte-identical, not merely equal in cost.
    #[test]
    fn blocks_one_is_byte_identical_to_flat(
        (inst, _) in instance_strategy(24, 40, 30, 3, 8)
    ) {
        let h = hier(&inst, &HierConfig::new(1));
        let flat = oggp(&inst);
        prop_assert_eq!(h, flat);
    }
}
