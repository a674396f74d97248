//! Every planner behind [`kpbs::Algo`], at the edges of its input space
//! and by name.
//!
//! The extreme inputs of `tests/hier.rs` (k=1, β=0, empty 0×0 and 5×5,
//! 1×n, n×1, a single edge) go through [`Algo::plan`] for every variant,
//! through [`kpbs::plan_topology`] on the matching two-cluster topology,
//! and through [`DeltaPlanner::replan`]: every schedule must validate and
//! deliver exactly its matrix. The names round-trip through `FromStr` and
//! `Display`, and an unknown name's error lists the valid ones.

use bipartite::Graph;
use kpbs::hier::HierConfig;
use kpbs::traffic::TickScale;
use kpbs::validate::validate;
use kpbs::{plan_topology, Algo, DeltaPlanner, Instance, MatrixDelta, Topology, TrafficMatrix};

/// `(name, instance, its matrix in ticks)`. At most one message per cell:
/// the delta planner and the traffic-matrix path both need that.
fn cases() -> Vec<(&'static str, Instance, TrafficMatrix)> {
    let spread: Vec<(usize, usize, u64)> = (0..144)
        .map(|c| (c / 12, c % 12))
        .filter(|&(l, r)| (l * 5 + r * 7) % 4 == 0)
        .map(|(l, r)| (l, r, 1 + (l as u64 * 13 + r as u64 * 7) % 29))
        .collect();
    let row: Vec<(usize, usize, u64)> = (0..9).map(|j| (0, j, 3 + j as u64)).collect();
    let col: Vec<(usize, usize, u64)> = row.iter().map(|&(l, r, w)| (r, l, w)).collect();
    let case = |name, n1, n2, k, beta, cells: &[(usize, usize, u64)]| {
        let mut g = Graph::new(n1, n2);
        let mut t = TrafficMatrix::zeros(n1, n2);
        for &(l, r, w) in cells {
            g.add_edge(l, r, w);
            t.set(l, r, w);
        }
        (name, Instance::new(g, k, beta), t)
    };
    vec![
        case("k=1", 12, 12, 1, 2, &spread),
        case("beta=0", 12, 12, 4, 0, &spread),
        case("empty 0x0", 0, 0, 2, 1, &[]),
        case("empty 5x5", 5, 5, 2, 1, &[]),
        case("1xn", 1, 9, 4, 1, &row),
        case("nx1", 9, 1, 4, 1, &col),
        case("single edge", 3, 3, 2, 1, &[(1, 2, 7)]),
    ]
}

/// Every planner `--algo` names, plus hier at fixed block counts.
fn every_algo() -> Vec<Algo> {
    let mut algos: Vec<Algo> = Algo::NAMES.iter().map(|n| n.parse().unwrap()).collect();
    algos.extend([1, 3].map(|b| Algo::Hier(HierConfig::new(b))));
    algos
}

/// What `schedule` moves per `(sender, receiver)` cell of `inst`.
fn delivered(inst: &Instance, schedule: &kpbs::Schedule) -> TrafficMatrix {
    let g = &inst.graph;
    let mut t = TrafficMatrix::zeros(g.left_count(), g.right_count());
    for tr in schedule.steps.iter().flat_map(|s| &s.transfers) {
        let (l, r) = (g.left_of(tr.edge), g.right_of(tr.edge));
        t.set(l, r, t.get(l, r) + tr.amount);
    }
    t
}

#[test]
fn every_planner_handles_extreme_instances() {
    for (name, inst, ticks) in cases() {
        for algo in every_algo() {
            let s = algo.plan(&inst);
            validate(&inst, &s).unwrap_or_else(|e| panic!("{name} {algo:?}: {e}"));
            assert_eq!(delivered(&inst, &s), ticks, "{name} {algo:?}");
        }
    }
}

#[test]
fn every_planner_handles_extreme_topology_inputs() {
    for (name, inst, ticks) in cases() {
        // At 8 Mbit/s a millisecond tick moves 1 000 bytes.
        let (n1, n2) = (ticks.senders(), ticks.receivers());
        let topo = Topology::two_cluster(n1, n2, 8.0, 8.0, 8.0 * inst.k as f64);
        let mut bytes = TrafficMatrix::zeros(n1, n2);
        for (_, l, r, w) in inst.graph.edges() {
            bytes.set(l, r, w * 1_000);
        }
        let beta = inst.beta as f64 / 1_000.0;
        for algo in every_algo() {
            let planned = plan_topology(&bytes, &topo, beta, TickScale::MILLIS, algo);
            if n1 == 0 || n2 == 0 {
                // No node on a side is a typed error, not a panic.
                assert!(planned.is_err(), "{name} {algo:?}");
                continue;
            }
            let plan = planned.unwrap_or_else(|e| panic!("{name} {algo:?}: {e}"));
            validate(&plan.instance, &plan.schedule)
                .unwrap_or_else(|e| panic!("{name} {algo:?}: {e}"));
            let mut moved = TrafficMatrix::zeros(n1, n2);
            for (edge, b) in plan
                .schedule
                .byte_slices(&plan.instance, &plan.bytes)
                .into_iter()
                .flatten()
            {
                let (i, j) = plan.endpoints[edge.index()];
                moved.set(i, j, moved.get(i, j) + b);
            }
            assert_eq!(moved, bytes, "{name} {algo:?}");
        }
    }
}

#[test]
fn delta_planner_handles_extreme_instances() {
    for (name, inst, ticks) in cases() {
        let (n1, n2) = (ticks.senders(), ticks.receivers());
        let mut planner = DeltaPlanner::new(inst);
        validate(planner.instance(), planner.schedule()).unwrap();
        assert_eq!(planner.delivered_matrix(), ticks, "{name} open");
        // Set the last cell, growing a side first when it has no node.
        let grow = MatrixDelta::GrowNodes {
            senders: usize::from(n1 == 0),
            receivers: usize::from(n2 == 0),
        };
        let (sender, receiver) = (n1.max(1) - 1, n2.max(1) - 1);
        let set = MatrixDelta::Set {
            sender,
            receiver,
            ticks: 9,
        };
        planner.replan(&[grow, set]);
        validate(planner.instance(), planner.schedule())
            .unwrap_or_else(|e| panic!("{name} replan: {e}"));
        assert_eq!(planner.cell(sender, receiver), 9, "{name}");
        let target = planner.target_matrix();
        assert_eq!(planner.delivered_matrix(), target, "{name} replan");
    }
}

#[test]
fn names_round_trip_and_unknown_names_list_them() {
    let variants = [
        Algo::Oggp,
        Algo::Ggp,
        Algo::Hier(HierConfig::new(0)),
        Algo::Sequential,
        Algo::List,
        Algo::Greedy,
    ];
    for (algo, name) in variants.into_iter().zip(Algo::NAMES) {
        assert_eq!(algo.to_string(), name);
        assert_eq!(name.parse::<Algo>(), Ok(algo), "hier parses to auto blocks");
    }
    assert_eq!(Algo::Hier(HierConfig::new(5)).to_string(), "hier");
    for bad in ["nope", "", "OGGP", "hier2"] {
        let err = bad.parse::<Algo>().unwrap_err();
        assert!(err.contains(&format!("{bad:?}")), "{err}");
        assert!(err.contains(&Algo::NAMES.join("|")), "{err}");
    }
}
