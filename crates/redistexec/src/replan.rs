//! A plan as the runtime executes it: byte-valued steps.
//!
//! The initial plan and every residual replan are [`kpbs::TopoPlan`]s from
//! one planner, [`kpbs::plan_topology`] (route, plan every backbone under
//! its own `k_b`, compose, validate). [`step_ops`] expands such a plan into
//! the transfer operations the [`Transport`](crate::Transport) carries. The
//! paper's platform is the two-cluster topology
//! ([`kpbs::Topology::from_platform`]), on which the plan is byte-identical
//! to [`kpbs::Algo::plan`] of [`kpbs::TrafficMatrix::to_instance`].

use crate::transport::TransferOp;
use kpbs::TopoPlan;

/// The byte-valued transfer operations of each step of `plan`, in execution
/// order, via the exact cumulative-floor apportioning of
/// [`kpbs::Schedule::byte_slices`]. Per-pair byte sums equal the planned
/// matrix exactly; steps whose slices all round to zero bytes come out
/// empty (and still occupy a step slot).
pub fn step_ops(plan: &TopoPlan) -> Vec<Vec<TransferOp>> {
    plan.schedule
        .byte_slices(&plan.instance, &plan.bytes)
        .into_iter()
        .map(|slices| {
            slices
                .into_iter()
                .map(|(edge, bytes)| {
                    let (src, dst) = plan.endpoints[edge.index()];
                    TransferOp { src, dst, bytes }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpbs::traffic::TickScale;
    use kpbs::{plan_topology, Algo, Platform, TopoError, Topology, TrafficMatrix};

    fn traffic() -> (TrafficMatrix, Platform) {
        let mut m = TrafficMatrix::zeros(3, 3);
        m.set(0, 0, 10_000_000);
        m.set(0, 1, 4_000_000);
        m.set(1, 1, 7_000_000);
        m.set(2, 2, 2_500_000);
        (m, Platform::new(3, 3, 100.0, 100.0, 200.0))
    }

    /// Sums the bytes of every step op per pair.
    fn delivered(plan: &TopoPlan, n1: usize, n2: usize) -> TrafficMatrix {
        let mut seen = TrafficMatrix::zeros(n1, n2);
        for step in step_ops(plan) {
            for op in step {
                seen.set(op.src, op.dst, seen.get(op.src, op.dst) + op.bytes);
            }
        }
        seen
    }

    #[test]
    fn plan_validates_and_covers_bytes() {
        let (m, p) = traffic();
        let topo = Topology::from_platform(&p);
        for algo in Algo::NAMES.map(|n| n.parse::<Algo>().unwrap()) {
            let plan = plan_topology(&m, &topo, 0.05, TickScale::MILLIS, algo).unwrap();
            assert!(plan.schedule.validate(&plan.instance).is_ok());
            // Per-pair byte sums across step ops equal the matrix exactly.
            assert_eq!(delivered(&plan, 3, 3), m, "{algo:?} byte coverage");
        }
    }

    #[test]
    fn plan_topo_homogeneous_matches_platform_plan() {
        let (m, p) = traffic();
        let topo = Topology::from_platform(&p);
        let (instance, endpoints) = m.to_instance(&p, 0.05, TickScale::MILLIS);
        let bytes: Vec<u64> = endpoints.iter().map(|&(i, j)| m.get(i, j)).collect();
        for algo in Algo::NAMES.map(|n| n.parse::<Algo>().unwrap()) {
            let via_topo = plan_topology(&m, &topo, 0.05, TickScale::MILLIS, algo).unwrap();
            assert_eq!(via_topo.schedule, algo.plan(&instance), "{algo:?} oracle");
            assert_eq!(via_topo.endpoints, endpoints);
            assert_eq!(via_topo.bytes, bytes);
        }
    }

    #[test]
    fn plan_topo_covers_bytes_on_two_backbones() {
        let topo = kpbs::instances::two_backbone_topology(2, 100.0, 50.0, 200.0, 60.0);
        let mut m = TrafficMatrix::zeros(4, 4);
        m.set(0, 1, 9_000_000);
        m.set(1, 0, 4_000_000);
        m.set(2, 3, 6_000_000);
        m.set(3, 2, 2_000_000);
        let plan = plan_topology(&m, &topo, 0.05, TickScale::MILLIS, Algo::Oggp).unwrap();
        plan.schedule.validate(&plan.instance).unwrap();
        assert_eq!(
            delivered(&plan, 4, 4),
            m,
            "byte coverage through composition"
        );

        // Unroutable traffic is a planning error, not a silent drop.
        m.set(0, 3, 1_000_000);
        let err = plan_topology(&m, &topo, 0.05, TickScale::MILLIS, Algo::Oggp).unwrap_err();
        assert!(matches!(err, TopoError::Unroutable { .. }), "{err}");
    }

    #[test]
    fn empty_matrix_plans_to_empty_schedule() {
        let topo = Topology::two_cluster(2, 2, 100.0, 100.0, 200.0);
        let plan = plan_topology(
            &TrafficMatrix::zeros(2, 2),
            &topo,
            0.05,
            TickScale::MILLIS,
            Algo::Oggp,
        )
        .unwrap();
        assert_eq!(plan.schedule.num_steps(), 0);
        assert!(step_ops(&plan).is_empty());
    }
}
