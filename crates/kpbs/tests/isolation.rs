//! Isolation invariance: nodes that carry no traffic never reach the
//! weight-regular graph, so inserting isolated senders or receivers
//! anywhere in an instance — edge order kept — must leave every planner's
//! schedule unchanged, edge id for edge id. Plus the extremes of the same
//! property: `k` above the live nodes of a side, an instance whose edges
//! are all tombstoned, and a delta re-peel after a sender drops out.

use bipartite::Graph;
use kpbs::hier::{hier, HierConfig};
use kpbs::normalize::normalize;
use kpbs::oggp::oggp_reference;
use kpbs::regularize::regularize;
use kpbs::validate::validate;
use kpbs::{ggp, oggp, DeltaPlanner, Instance, MatrixDelta, RepairLevel, Schedule};
use proptest::prelude::*;

/// An instance plus the gap positions of the isolated rows and columns to
/// insert into it (`p` means "before original node `p`").
#[derive(Debug, Clone)]
struct Case {
    n1: usize,
    n2: usize,
    edges: Vec<(usize, usize, u64)>,
    k: usize,
    beta: u64,
    extra_left: Vec<usize>,
    extra_right: Vec<usize>,
}

impl Case {
    fn base(&self) -> Instance {
        self.build(&[], &[])
    }

    fn spread(&self) -> Instance {
        self.build(&self.extra_left, &self.extra_right)
    }

    fn build(&self, extra_left: &[usize], extra_right: &[usize]) -> Instance {
        let shift = |extra: &[usize], v: usize| v + extra.iter().filter(|&&p| p <= v).count();
        let mut g = Graph::new(self.n1 + extra_left.len(), self.n2 + extra_right.len());
        for &(l, r, w) in &self.edges {
            g.add_edge(shift(extra_left, l), shift(extra_right, r), w);
        }
        Instance::new(g, self.k, self.beta)
    }
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (1usize..=8, 1usize..=8)
        .prop_flat_map(|(n1, n2)| {
            let edges = proptest::collection::vec((0..n1, 0..n2, 1u64..=40), 1..=25);
            let extra_left = proptest::collection::vec(0..=n1, 0..=4);
            let extra_right = proptest::collection::vec(0..=n2, 0..=4);
            (
                Just((n1, n2)),
                edges,
                1usize..=12,
                0u64..=6,
                extra_left,
                extra_right,
            )
        })
        .prop_map(|((n1, n2), edges, k, beta, extra_left, extra_right)| Case {
            n1,
            n2,
            edges,
            k,
            beta,
            extra_left,
            extra_right,
        })
}

/// Every planner under test, by name.
fn planners(inst: &Instance) -> [(&'static str, Schedule); 4] {
    [
        ("oggp", oggp(inst)),
        ("ggp", ggp(inst)),
        ("oggp_reference", oggp_reference(inst)),
        ("hier", hier(inst, &HierConfig::new(1))),
    ]
}

/// Feasible and exact: `validate` checks the 1-port and width rules and
/// that each edge's slices sum to its weight.
fn check_delivers(inst: &Instance, schedule: &Schedule, what: &str) -> Result<(), TestCaseError> {
    validate(inst, schedule).map_err(|e| TestCaseError::fail(format!("{what}: {e}")))?;
    prop_assert_eq!(schedule.volume(), inst.total_weight(), "{}", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn isolated_nodes_leave_schedules_unchanged(case in case_strategy()) {
        let (base, spread) = (case.base(), case.spread());
        for ((name, a), (_, b)) in planners(&base).into_iter().zip(planners(&spread)) {
            check_delivers(&base, &a, name)?;
            check_delivers(&spread, &b, name)?;
            prop_assert_eq!(a, b, "{} changed when isolated nodes were inserted", name);
        }
        // The normalised view is the same graph either way.
        let (nb, np) = (normalize(&base), normalize(&spread));
        prop_assert_eq!(nb.k, np.k);
        prop_assert_eq!(nb.graph.left_count(), np.graph.left_count());
        prop_assert_eq!(nb.graph.right_count(), np.graph.right_count());
    }
}

#[test]
fn k_above_the_live_nodes_of_a_side() {
    // A 1 x n row with one message and k = 32: two live nodes, so J is
    // planned with k = 1.
    let mut row = Graph::new(1, 16);
    row.add_edge(0, 9, 7);
    let row = Instance::new(row, 32, 2);
    let mut single = Graph::new(1, 1);
    single.add_edge(0, 0, 7);
    let single = Instance::new(single, 32, 2);
    assert_eq!(normalize(&row).k, 1);
    for ((name, a), (_, b)) in planners(&row).into_iter().zip(planners(&single)) {
        validate(&row, &a).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(a.num_steps(), 1, "{name}");
        assert_eq!(a, b, "{name}");
    }

    // A wide k over a few live nodes of a large instance.
    let mut sparse = Graph::new(40, 40);
    sparse.add_edge(3, 30, 5);
    sparse.add_edge(3, 31, 4);
    sparse.add_edge(17, 30, 6);
    let sparse = Instance::new(sparse, 32, 1);
    let norm = normalize(&sparse);
    assert_eq!((norm.graph.left_count(), norm.graph.right_count()), (2, 2));
    assert_eq!(norm.k, 2);
    assert!(regularize(&norm.graph, norm.k).graph.left_count() >= 2);
    for (name, s) in planners(&sparse) {
        validate(&sparse, &s).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(s.volume(), 15, "{name}");
    }
}

#[test]
fn all_edges_tombstoned() {
    let mut g = Graph::new(5, 3);
    let edges: Vec<_> = (0..3).map(|i| g.add_edge(i, i, 4)).collect();
    for e in edges {
        g.remove_edge(e);
    }
    let inst = Instance::new(g, 3, 1);
    let norm = normalize(&inst);
    assert_eq!((norm.graph.left_count(), norm.graph.right_count()), (0, 0));
    assert_eq!(norm.k, 1);
    assert!(regularize(&norm.graph, norm.k).graph.is_empty());
    for (name, s) in planners(&inst) {
        assert_eq!(s.num_steps(), 0, "{name}");
        validate(&inst, &s).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn repeel_after_a_sender_drops() {
    let mut g = Graph::new(6, 6);
    for i in 0..6 {
        g.add_edge(i, i, 10);
        g.add_edge(i, (i + 1) % 6, 5);
    }
    let mut planner = DeltaPlanner::new(Instance::new(g, 3, 1));
    planner.replan(&[MatrixDelta::DropSender(2)]);
    // A message far heavier than any step leaves a residual the slack
    // cannot absorb: the ladder re-peels it over the n x n residual graph,
    // whose only live nodes are the cell's two endpoints.
    let outcome = planner.replan(&[MatrixDelta::Set {
        sender: 4,
        receiver: 1,
        ticks: 400,
    }]);
    assert_eq!(outcome.level, RepairLevel::RePeel);
    validate(planner.instance(), planner.schedule()).unwrap();
    assert_eq!(planner.delivered_matrix(), planner.target_matrix());
}
