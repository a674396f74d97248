//! Differential proptests of the topology subsystem.
//!
//! Three invariants over 200 random cases each, the first two for every
//! [`kpbs::Algo`]:
//!
//! * **Oracle**: on a homogeneous two-cluster topology, planning through
//!   [`kpbs::plan_topology`] is **byte-identical** to planning through the
//!   [`kpbs::Platform`] path (same instance parameters, same schedule, same
//!   lower bound) — the topology layer is a strict generalisation, never a
//!   behavioural fork.
//! * **Validity**: every heterogeneous (star or multi-backbone) plan passes
//!   [`kpbs::validate`] against its composed instance and delivers exactly
//!   the input bytes through the byte-slice apportioning the executor uses.
//! * **Routing**: [`kpbs::topo_instance`] — the instance a schedule planned
//!   elsewhere is validated against — is the instance the plan carries, and
//!   on the homogeneous topology the [`kpbs::Platform`] path's instance.
//! * **Bound**: no composed schedule's cost ever beats the
//!   heterogeneity-aware lower bound [`kpbs::topo_lower_bound`].

use kpbs::residual::residual_matrix;
use kpbs::traffic::TickScale;
use kpbs::{
    plan_topology, topo_instance, topo_lower_bound, Algo, Platform, Topology, TrafficMatrix,
};
use proptest::prelude::*;

/// A random homogeneous workload: cluster sizes, uniform speeds, a backbone
/// wide enough for k in 1..=4, and a full traffic matrix.
fn homogeneous_strategy() -> impl Strategy<Value = (TrafficMatrix, Platform, f64)> {
    (2usize..=6, 2usize..=6)
        .prop_flat_map(|(n1, n2)| {
            let cells = proptest::collection::vec(0u64..=30_000_000, n1 * n2);
            (
                Just((n1, n2)),
                cells,
                1usize..=4,
                10u64..=200,
                10u64..=200,
                0u64..=100,
            )
        })
        .prop_map(|((n1, n2), cells, kmul, t1, t2, beta_ms)| {
            let traffic = TrafficMatrix::from_rows(n1, n2, cells);
            let t = t1.min(t2) as f64;
            let platform = Platform::new(n1, n2, t1 as f64, t2 as f64, t * kmul as f64);
            (traffic, platform, beta_ms as f64 / 1_000.0)
        })
}

/// A random heterogeneous topology — a star (per-node NIC speeds, one
/// backbone) or a two-backbone cluster-of-clusters — with traffic on its
/// routable pairs only. The vendored proptest has no `prop_oneof`, so a
/// selector draw picks the shape from one parameter pool.
fn heterogeneous_strategy() -> impl Strategy<Value = (Topology, TrafficMatrix, f64)> {
    (
        0u8..=1,
        (2usize..=5, 2usize..=5),
        proptest::collection::vec(10.0f64..200.0, 5..=5),
        proptest::collection::vec(10.0f64..200.0, 5..=5),
        (20.0f64..600.0, 20.0f64..400.0),
    )
        .prop_flat_map(|(kind, (a, b), out_pool, in_pool, (cap_a, cap_b))| {
            let topo = if kind == 0 {
                Topology::star(&out_pool[..a], &in_pool[..b], cap_a)
            } else {
                // Cluster-of-clusters: two sender and two receiver
                // clusters of 1..=3 nodes, disjoint backbones.
                kpbs::instances::multi_level_topology(
                    &[(1 + a % 3, out_pool[0]), (1 + b % 3, out_pool[1])],
                    &[(1 + a % 3, in_pool[0]), (1 + b % 3, in_pool[1])],
                    &[(0, 0, cap_a), (1, 1, cap_b)],
                )
            };
            let (n1, n2) = (topo.senders(), topo.receivers());
            let cells = proptest::collection::vec(0u64..=20_000_000, n1 * n2);
            (Just(topo), cells, 0u64..=100)
        })
        .prop_map(|(topo, cells, beta_ms)| {
            let (n1, n2) = (topo.senders(), topo.receivers());
            let mut m = TrafficMatrix::zeros(n1, n2);
            for i in 0..n1 {
                for j in 0..n2 {
                    if topo.route(i, j).is_some() {
                        m.set(i, j, cells[i * n2 + j]);
                    }
                }
            }
            (topo, m, beta_ms as f64 / 1_000.0)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn homogeneous_topology_is_byte_identical_to_platform(
        (traffic, platform, beta) in homogeneous_strategy(),
    ) {
        let topo = Topology::from_platform(&platform);
        let (instance, endpoints) = traffic.to_instance(&platform, beta, TickScale::MILLIS);
        let routed = topo_instance(&traffic, &topo, beta, TickScale::MILLIS)
            .map_err(|e| TestCaseError::fail(format!("routing failed: {e}")))?;
        prop_assert_eq!(format!("{:?}", routed.instance), format!("{instance:?}"));
        prop_assert_eq!(&routed.endpoints, &endpoints, "routed edge numbering diverged");
        for algo in Algo::NAMES.map(|n| n.parse::<Algo>().unwrap()) {
            let plan = plan_topology(&traffic, &topo, beta, TickScale::MILLIS, algo)
                .map_err(|e| TestCaseError::fail(format!("{algo}: topo planning failed: {e}")))?;
            prop_assert_eq!(plan.instance.k, instance.k, "k diverged");
            prop_assert_eq!(plan.instance.beta, instance.beta, "beta diverged");
            prop_assert_eq!(&plan.endpoints, &endpoints, "edge numbering diverged");
            prop_assert_eq!(&plan.schedule, &algo.plan(&instance), "{} schedules diverged", algo);
            prop_assert_eq!(
                plan.lower_bound,
                kpbs::lower_bound(&instance),
                "lower bounds diverged"
            );
        }
    }

    #[test]
    fn heterogeneous_plans_validate_and_deliver_exactly(
        (topo, traffic, beta) in heterogeneous_strategy(),
    ) {
        let routed = topo_instance(&traffic, &topo, beta, TickScale::MILLIS)
            .map_err(|e| TestCaseError::fail(format!("routing failed: {e}")))?;
        for algo in Algo::NAMES.map(|n| n.parse::<Algo>().unwrap()) {
            let plan = plan_topology(&traffic, &topo, beta, TickScale::MILLIS, algo)
                .map_err(|e| TestCaseError::fail(format!("{algo}: topo planning failed: {e}")))?;
            prop_assert_eq!(format!("{:?}", routed.instance), format!("{:?}", plan.instance));
            prop_assert_eq!(&routed.endpoints, &plan.endpoints);
            prop_assert_eq!(&routed.bytes, &plan.bytes);
            prop_assert!(
                plan.schedule.validate(&plan.instance).is_ok(),
                "{} composed schedule failed kpbs::validate", algo
            );
            // Exact delivery: expanding the schedule into byte slices and
            // subtracting from the demand leaves nothing outstanding.
            let mut delivered = TrafficMatrix::zeros(traffic.senders(), traffic.receivers());
            for slices in plan.schedule.byte_slices(&plan.instance, &plan.bytes) {
                for (edge, bytes) in slices {
                    let (i, j) = plan.endpoints[edge.index()];
                    delivered.set(i, j, delivered.get(i, j) + bytes);
                }
            }
            prop_assert_eq!(&delivered, &traffic, "{} byte coverage", algo);
            prop_assert_eq!(residual_matrix(&traffic, &delivered).total_bytes(), 0);
        }
    }

    #[test]
    fn cost_never_beats_the_heterogeneous_lower_bound(
        (topo, traffic, beta) in heterogeneous_strategy(),
    ) {
        let plan = plan_topology(&traffic, &topo, beta, TickScale::MILLIS, Algo::Oggp)
            .map_err(|e| TestCaseError::fail(format!("topo planning failed: {e}")))?;
        let bound = topo_lower_bound(&traffic, &topo, beta, TickScale::MILLIS)
            .map_err(|e| TestCaseError::fail(format!("bound failed: {e}")))?;
        prop_assert_eq!(plan.lower_bound, bound, "plan carries the same bound");
        prop_assert!(
            plan.schedule.cost() >= bound,
            "cost {} beats the lower bound {}",
            plan.schedule.cost(),
            bound
        );
    }
}
