//! The fault campaign: 200 seeded fault plans over random workloads.
//!
//! The delivery invariant under arbitrary (plan-generated) faults:
//!
//! * every `(sender, receiver)` pair whose endpoints survive receives
//!   **exactly** its bytes,
//! * no pair ever receives more than its demand,
//! * every schedule spliced in by residual re-planning passes
//!   [`kpbs::validate`],
//! * a zero-fault execution is byte-identical to the plain
//!   [`kpbs::Schedule::byte_slices`] expansion of the initial plan.
//!
//! The same invariant holds on heterogeneous topologies — a star platform
//! (Marchal et al.) and a two-backbone cluster pair — executed over the
//! flow-level simulator, where the initial plan also never beats the
//! heterogeneity-aware lower bound [`kpbs::topo_lower_bound`].

use kpbs::traffic::TickScale;
use kpbs::{topo_lower_bound, Algo, Platform, Topology, TrafficMatrix};
use proptest::prelude::*;
use redistexec::{
    plan_and_execute_topo, step_ops, ExecConfig, FaultPlan, FaultSpec, LoopbackTransport,
    SimTransport,
};

/// A random workload small enough to plan 200 times but rich enough to
/// yield multi-step schedules: up to 6×6 nodes, cells up to 30 MB.
fn workload_strategy() -> impl Strategy<Value = (TrafficMatrix, Platform, f64)> {
    (2usize..=6, 2usize..=6)
        .prop_flat_map(|(n1, n2)| {
            let cells = proptest::collection::vec(0u64..=30_000_000, n1 * n2);
            // Backbone multiplier chooses k between 1 and min(n1, n2)-ish.
            (Just((n1, n2)), cells, 1usize..=4, 0u64..=200)
        })
        .prop_map(|((n1, n2), cells, kmul, beta_ms)| {
            let traffic = TrafficMatrix::from_rows(n1, n2, cells);
            let platform = Platform::new(n1, n2, 100.0, 100.0, 100.0 * kmul as f64);
            (traffic, platform, beta_ms as f64 / 1_000.0)
        })
}

/// A heterogeneous topology — a star with per-node NIC speeds and one
/// shared backbone, or a fast and a slow cluster pair on disjoint
/// backbones — with traffic on its routable pairs only.
fn topology_strategy() -> impl Strategy<Value = (Topology, TrafficMatrix, f64)> {
    (
        0u8..=1,
        2usize..=5,
        proptest::collection::vec(10.0f64..200.0, 5..=5),
        proptest::collection::vec(10.0f64..200.0, 5..=5),
        (20.0f64..600.0, 20.0f64..400.0),
    )
        .prop_flat_map(|(kind, n, out_pool, in_pool, (cap_a, cap_b))| {
            let topo = if kind == 0 {
                Topology::star(&out_pool[..n], &in_pool[..n], cap_a)
            } else {
                let (fast, slow) = (out_pool[0].max(in_pool[0]), out_pool[0].min(in_pool[0]));
                kpbs::instances::two_backbone_topology(1 + n / 2, fast, slow, cap_a, cap_b)
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

fn fault_spec_strategy() -> impl Strategy<Value = FaultSpec> {
    (
        (0usize..=8, 1u32..=6, 0usize..=2, 0usize..=3, 4u64..=24),
        (0usize..=4, 0usize..=3),
    )
        .prop_map(
            |(
                (transients, max_consecutive, node_drops, slowdowns, horizon),
                (nic_slowdowns, link_degradations),
            )| FaultSpec {
                transients,
                max_consecutive,
                node_drops,
                slowdowns,
                horizon,
                nic_slowdowns,
                link_degradations,
                links: 1,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn delivery_invariant_under_seeded_faults(
        (traffic, platform, beta) in workload_strategy(),
        spec in fault_spec_strategy(),
        fault_seed in 0u64..=u64::MAX,
        algo_bit in 0u8..=1,
    ) {
        let faults = FaultPlan::generate(
            fault_seed,
            traffic.senders(),
            traffic.receivers(),
            &spec,
        );
        let config = ExecConfig {
            algo: if algo_bit == 1 { Algo::Ggp } else { Algo::Oggp },
            ..ExecConfig::default()
        };
        let transport = LoopbackTransport::for_platform(&platform);
        let (initial, report) = plan_and_execute_topo(
            &traffic,
            &Topology::from_platform(&platform),
            beta,
            TickScale::MILLIS,
            transport,
            faults,
            config,
        )
        .map_err(|e| TestCaseError::fail(format!("execution failed: {e}")))?;

        // Exactness on surviving pairs, no over-delivery anywhere.
        if let Err(e) = report.verify_against(&traffic) {
            return Err(TestCaseError::fail(e));
        }
        // Per-pair accounting recomputed from the executed-step log agrees
        // with the transport ledger.
        let mut from_log = TrafficMatrix::zeros(traffic.senders(), traffic.receivers());
        for step in &report.steps {
            for op in &step.ops {
                from_log.set(op.src, op.dst, from_log.get(op.src, op.dst) + op.bytes);
            }
        }
        prop_assert_eq!(&from_log, &report.delivered, "step log vs ledger");
        // Every spliced schedule validates against its residual instance.
        for rec in &report.plans {
            prop_assert!(
                rec.schedule.validate(&rec.instance).is_ok(),
                "spliced schedule failed kpbs::validate"
            );
        }
        // The initial plan validated too (the planner guarantees it, but
        // the invariant is cheap to restate).
        prop_assert!(initial.schedule.validate(&initial.instance).is_ok());
    }

    #[test]
    fn zero_fault_run_is_plain_execution(
        (traffic, platform, beta) in workload_strategy(),
    ) {
        let transport = LoopbackTransport::for_platform(&platform);
        let (initial, report) = plan_and_execute_topo(
            &traffic,
            &Topology::from_platform(&platform),
            beta,
            TickScale::MILLIS,
            transport,
            FaultPlan::none(),
            ExecConfig::default(),
        )
        .map_err(|e| TestCaseError::fail(format!("execution failed: {e}")))?;

        prop_assert_eq!(report.retries, 0);
        prop_assert_eq!(report.replans, 0);
        prop_assert_eq!(report.faults_injected, 0);
        prop_assert_eq!(report.steps_spliced, 0);
        prop_assert_eq!(report.timeouts, 0);
        if let Err(e) = report.verify_against(&traffic) {
            return Err(TestCaseError::fail(e));
        }
        prop_assert_eq!(report.delivered.total_bytes(), traffic.total_bytes());

        // Byte-identical to the plain byte_slices expansion of the plan.
        let plain = step_ops(&initial);
        prop_assert_eq!(report.steps.len(), plain.len());
        for (got, want) in report.steps.iter().zip(&plain) {
            prop_assert_eq!(&got.ops, want, "zero-fault step diverged");
            prop_assert!(got.backoff_seconds == 0.0);
            prop_assert!(!got.timed_out);
        }
    }

    #[test]
    fn topology_delivery_invariant_under_seeded_faults(
        (topo, traffic, beta) in topology_strategy(),
        spec in fault_spec_strategy(),
        fault_seed in 0u64..=u64::MAX,
        faulty in 0u8..=1,
    ) {
        let faults = if faulty == 1 {
            let spec = FaultSpec { links: topo.links.len(), ..spec };
            FaultPlan::generate(fault_seed, topo.senders(), topo.receivers(), &spec)
        } else {
            FaultPlan::none()
        };
        let transport = SimTransport::for_topology(&topo)
            .map_err(|e| TestCaseError::fail(format!("transport: {e}")))?;
        let (initial, report) = plan_and_execute_topo(
            &traffic,
            &topo,
            beta,
            TickScale::MILLIS,
            transport,
            faults,
            ExecConfig::default(),
        )
        .map_err(|e| TestCaseError::fail(format!("execution failed: {e}")))?;

        if let Err(e) = report.verify_against(&traffic) {
            return Err(TestCaseError::fail(e));
        }
        for rec in std::iter::once(&initial).chain(&report.plans) {
            prop_assert!(
                rec.schedule.validate(&rec.instance).is_ok(),
                "plan record failed kpbs::validate"
            );
        }
        let bound = topo_lower_bound(&traffic, &topo, beta, TickScale::MILLIS)
            .map_err(|e| TestCaseError::fail(format!("bound failed: {e}")))?;
        prop_assert!(
            initial.schedule.cost() >= bound,
            "cost {} beats the lower bound {}",
            initial.schedule.cost(),
            bound
        );
    }
}
