//! Execution of K-PBS schedules, fault-free or fault-tolerant.
//!
//! The planners in [`kpbs`] answer *what to send when*; this crate drives
//! such a plan to completion. The network is always a [`kpbs::Topology`]:
//! the paper's two clusters and one backbone are
//! [`Topology::from_platform`](kpbs::Topology::from_platform), stars and
//! multi-backbone platforms are the general case. [`Runtime`] is the one
//! place a schedule meets a network: it walks the schedule step by step —
//! β paid per step, steps separated by a barrier, as in the paper's MPICH
//! runs (§5) — over a pluggable [`Transport`]: [`LoopbackTransport`]
//! (analytic 1-port timing), [`SimTransport`] (the [`flowsim`] max–min
//! fair fluid engine) or [`MpiTransport`] (real bytes through
//! [`mpilite`]'s shaped threaded fabric). The paper's baseline runs over
//! the same transports: [`brute_force`] hands every message to one
//! unconstrained [`Transport::deliver`] call. With [`FaultPlan::none`] a
//! schedule run is plain schedule execution; a seeded, fully deterministic
//! [`FaultPlan`] injects three kinds of trouble:
//!
//! * **transient transfer failures** — retried with capped exponential
//!   backoff up to a per-transfer attempt budget,
//! * **permanent node drops** — the node's remaining demand is written off,
//! * **per-step slowdowns** — stretch the step; breaching the per-step
//!   timeout aborts it.
//!
//! Whenever a failure cannot be retried away, the runtime computes the
//! *residual* traffic matrix — original demand minus the transport's
//! delivery ledger, restricted to surviving nodes (see [`kpbs::residual`])
//! — re-plans it over the same topology with the configured [`kpbs::Algo`]
//! ([`kpbs::plan_topology`], the planner of the initial plan too, which
//! validates the fresh schedule) and splices its steps ([`step_ops`]) in
//! place of everything not yet executed.
//!
//! The delivery invariant, enforced across a 200-seed fault campaign by
//! proptest: pairs whose endpoints survive receive **exactly** their bytes,
//! no pair ever over-delivers, every spliced schedule passes
//! [`kpbs::validate`], and a zero-fault run executes exactly the
//! [`step_ops`] of the initial plan.
//!
//! # Quickstart
//!
//! ```
//! use kpbs::{Topology, TrafficMatrix, traffic::TickScale};
//! use redistexec::{plan_and_execute_topo, ExecConfig, FaultPlan, FaultSpec, LoopbackTransport};
//!
//! let topo = Topology::two_cluster(3, 3, 100.0, 100.0, 200.0);
//! let mut traffic = TrafficMatrix::zeros(3, 3);
//! traffic.set(0, 0, 10_000_000);
//! traffic.set(1, 2, 25_000_000);
//! traffic.set(2, 1, 5_000_000);
//!
//! let faults = FaultPlan::generate(7, 3, 3, &FaultSpec::default());
//! let transport = LoopbackTransport::for_topology(&topo);
//! let (_, report) = plan_and_execute_topo(
//!     &traffic, &topo, 0.05, TickScale::MILLIS,
//!     transport, faults, ExecConfig::default(),
//! ).unwrap();
//! report.verify_against(&traffic).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod faults;
pub mod replan;
pub mod residual;
pub mod runtime;
pub mod transport;

pub use faults::{FaultPlan, FaultSpec, NodeRef};
/// Alias of [`kpbs::TopoPlan`], the one plan record, for callers that name
/// it `PlanRecord` (the end-to-end benchmark's `exec` workload does).
pub use kpbs::TopoPlan as PlanRecord;
pub use replan::step_ops;
pub use residual::{outstanding, Liveness};
pub use runtime::{
    brute_force, execute_fault_free, plan_and_execute_topo, ExecConfig, ExecError, ExecMetrics,
    ExecReport, ExecutedStep, Runtime,
};
pub use transport::{
    LoopbackTransport, MpiTransport, SimTransport, StepFaults, TransferOp, Transport,
};
