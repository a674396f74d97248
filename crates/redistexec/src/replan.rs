//! Planning and re-planning traffic with any [`Algo`] over a [`Topology`].
//!
//! Both the initial plan and every residual replan go through the same entry
//! point, [`plan_topo`]: matrix → [`kpbs::plan_topology`] (route, plan every
//! backbone under its own `k_b`, compose, validate) → byte-valued steps.
//! The paper's platform is the two-cluster topology
//! ([`Topology::from_platform`]), on which the plan is byte-identical to
//! [`Algo::plan`] of [`TrafficMatrix::to_instance`]. Each plan records the
//! caller's `local_snapshot` work-counter delta, which includes the work of
//! any fan-out inside the planner (see [`kpbs::batch`]).

use crate::transport::TransferOp;
use kpbs::{plan_topology, Algo, Instance, Schedule, TrafficMatrix};
use kpbs::{TopoError, Topology};
use telemetry::counters::{self, Snapshot};

/// One planning round: the instance it scheduled, the mapping from edge id
/// to `(sender, receiver)`, the validated schedule, and the work it cost.
#[derive(Debug, Clone)]
pub struct PlanRecord {
    /// The K-PBS instance derived from the planned matrix.
    pub instance: Instance,
    /// `(sender, receiver)` behind each dense edge id.
    pub endpoints: Vec<(usize, usize)>,
    /// Byte volume behind each dense edge id.
    pub bytes: Vec<u64>,
    /// The schedule, already validated against `instance`.
    pub schedule: Schedule,
    /// Work-counter delta of this planning round.
    pub work: Snapshot,
}

impl PlanRecord {
    /// The byte-valued transfer operations of each step, in execution
    /// order, via the exact cumulative-floor apportioning of
    /// [`Schedule::byte_slices`]. Per-pair byte sums equal the planned
    /// matrix exactly; steps whose slices all round to zero bytes come out
    /// empty (and still occupy a step slot).
    pub fn step_ops(&self) -> Vec<Vec<TransferOp>> {
        self.schedule
            .byte_slices(&self.instance, &self.bytes)
            .into_iter()
            .map(|slices| {
                slices
                    .into_iter()
                    .map(|(edge, bytes)| {
                        let (src, dst) = self.endpoints[edge.index()];
                        TransferOp { src, dst, bytes }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Plans `traffic` over `topo` with the chosen algorithm: every traffic
/// block is routed to its governing backbone, planned under that backbone's
/// own preemption bound `k_b`, and the per-link schedules are composed and
/// validated ([`kpbs::plan_topology`]). Used for the initial plan and for
/// every residual replan.
pub fn plan_topo(
    traffic: &TrafficMatrix,
    topo: &Topology,
    beta_seconds: f64,
    scale: kpbs::traffic::TickScale,
    algo: Algo,
) -> Result<PlanRecord, TopoError> {
    let before = counters::local_snapshot();
    let plan = plan_topology(traffic, topo, beta_seconds, scale, algo)?;
    let work = counters::local_snapshot().delta(&before);
    Ok(PlanRecord {
        instance: plan.instance,
        endpoints: plan.endpoints,
        bytes: plan.bytes,
        schedule: plan.schedule,
        work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpbs::traffic::TickScale;
    use kpbs::Platform;

    fn traffic() -> (TrafficMatrix, Platform) {
        let mut m = TrafficMatrix::zeros(3, 3);
        m.set(0, 0, 10_000_000);
        m.set(0, 1, 4_000_000);
        m.set(1, 1, 7_000_000);
        m.set(2, 2, 2_500_000);
        (m, Platform::new(3, 3, 100.0, 100.0, 200.0))
    }

    #[test]
    fn plan_validates_and_covers_bytes() {
        let (m, p) = traffic();
        let topo = Topology::from_platform(&p);
        for algo in Algo::NAMES.map(|n| n.parse::<Algo>().unwrap()) {
            let rec = plan_topo(&m, &topo, 0.05, TickScale::MILLIS, algo).unwrap();
            assert!(rec.schedule.validate(&rec.instance).is_ok());
            // Per-pair byte sums across step ops equal the matrix exactly.
            let mut seen = TrafficMatrix::zeros(3, 3);
            for step in rec.step_ops() {
                for op in step {
                    seen.set(op.src, op.dst, seen.get(op.src, op.dst) + op.bytes);
                }
            }
            assert_eq!(seen, m, "{algo:?} byte coverage");
        }
    }

    #[test]
    fn plan_topo_homogeneous_matches_platform_plan() {
        let (m, p) = traffic();
        let topo = Topology::from_platform(&p);
        let (instance, endpoints) = m.to_instance(&p, 0.05, TickScale::MILLIS);
        let bytes: Vec<u64> = endpoints.iter().map(|&(i, j)| m.get(i, j)).collect();
        for algo in Algo::NAMES.map(|n| n.parse::<Algo>().unwrap()) {
            let via_topo = plan_topo(&m, &topo, 0.05, TickScale::MILLIS, algo).unwrap();
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
        let rec = plan_topo(&m, &topo, 0.05, TickScale::MILLIS, Algo::Oggp).unwrap();
        rec.schedule.validate(&rec.instance).unwrap();
        let mut seen = TrafficMatrix::zeros(4, 4);
        for step in rec.step_ops() {
            for op in step {
                seen.set(op.src, op.dst, seen.get(op.src, op.dst) + op.bytes);
            }
        }
        assert_eq!(seen, m, "byte coverage through composition");

        // Unroutable traffic is a planning error, not a silent drop.
        m.set(0, 3, 1_000_000);
        let err = plan_topo(&m, &topo, 0.05, TickScale::MILLIS, Algo::Oggp).unwrap_err();
        assert!(matches!(err, TopoError::Unroutable { .. }), "{err}");
    }

    #[test]
    fn empty_matrix_plans_to_empty_schedule() {
        let topo = Topology::two_cluster(2, 2, 100.0, 100.0, 200.0);
        let rec = plan_topo(
            &TrafficMatrix::zeros(2, 2),
            &topo,
            0.05,
            TickScale::MILLIS,
            Algo::Oggp,
        )
        .unwrap();
        assert_eq!(rec.schedule.num_steps(), 0);
        assert!(rec.step_ops().is_empty());
    }
}
