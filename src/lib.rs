//! # redistribute — message scheduling for data redistribution through a backbone
//!
//! A production-oriented implementation of Jeannot & Wagner, *Two Fast and
//! Efficient Message Scheduling Algorithms for Data Redistribution through a
//! Backbone* (IPDPS 2004): the **K-PBS** scheduling problem, its **GGP** and
//! **OGGP** 2-approximation algorithms, and everything needed to evaluate
//! them — a bipartite-graph library, a fluid network simulator, an MPI-like
//! threaded runtime, and one executor that runs schedules over either.
//!
//! The constituent crates are re-exported:
//!
//! * [`bipartite`] — graphs, matchings (maximum-cardinality, bottleneck),
//! * [`kpbs`] — the schedulers, bounds, baselines and extensions,
//! * [`flowsim`] — the discrete-event network simulator,
//! * [`mpilite`] — the threaded message-passing runtime,
//! * [`redistexec`] — the executor every schedule runs through (fault-free
//!   or under injected faults), over a simulated or a threaded transport,
//! * [`telemetry`] — spans, deterministic work counters, trace export.
//!
//! The [`Planner`]/[`Plan`] pair on this crate is the "fully working
//! redistribution library" of the paper's conclusion: hand it a traffic
//! matrix and a [`kpbs::Topology`] (the paper's platform is
//! [`Topology::two_cluster`](kpbs::Topology::two_cluster)), get a feasible
//! schedule from [`kpbs::plan_topology`], inspect its cost against the
//! lower bound, then run it — simulated or threaded, both through
//! [`redistexec::Runtime`].
//!
//! ```
//! use redistribute::{Algo, Planner};
//! use redistribute::kpbs::{Topology, TrafficMatrix};
//!
//! let topo = Topology::two_cluster(4, 4, 100.0, 100.0, 200.0); // k = 2
//! let mut traffic = TrafficMatrix::zeros(4, 4);
//! traffic.set(0, 0, 20_000_000);
//! traffic.set(0, 3, 5_000_000);
//! traffic.set(2, 1, 12_000_000);
//!
//! let plan = Planner::new(Algo::Oggp).plan(&traffic, &topo).unwrap();
//! assert!(plan.evaluation_ratio() < 2.0);
//! let report = plan.simulate_ideal();
//! assert!(report.total_seconds > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use bipartite;
pub use flowsim;
pub use kpbs;
pub use mpilite;
pub use redistexec;
pub use telemetry;

pub use kpbs::Algo;

pub mod cli;

use flowsim::{NetworkSpec, SimConfig};
use kpbs::traffic::TickScale;
use kpbs::{plan_topology, TopoError, TopoPlan, Topology, TrafficMatrix};
use redistexec::{
    ExecConfig, ExecReport, FaultPlan, MpiTransport, Runtime, SimTransport, Transport,
};

/// Builds [`Plan`]s from traffic matrices.
#[derive(Debug, Clone, Copy)]
pub struct Planner {
    algo: Algo,
    beta_seconds: f64,
    scale: TickScale,
}

impl Planner {
    /// A planner with the given algorithm, a 50 ms setup delay and
    /// millisecond tick resolution.
    pub fn new(algo: Algo) -> Self {
        Planner {
            algo,
            beta_seconds: 0.05,
            scale: TickScale::MILLIS,
        }
    }

    /// Overrides the per-step setup delay β (seconds).
    pub fn with_beta(mut self, beta_seconds: f64) -> Self {
        assert!(beta_seconds >= 0.0);
        self.beta_seconds = beta_seconds;
        self
    }

    /// Overrides the tick resolution.
    pub fn with_scale(mut self, scale: TickScale) -> Self {
        self.scale = scale;
        self
    }

    /// Schedules `traffic` over `topo` with [`kpbs::plan_topology`]; fails
    /// when the topology is invalid, the shapes differ or a message has no
    /// backbone.
    pub fn plan(&self, traffic: &TrafficMatrix, topo: &Topology) -> Result<Plan, TopoError> {
        let topo_plan = plan_topology(traffic, topo, self.beta_seconds, self.scale, self.algo)?;
        Ok(Plan {
            traffic: traffic.clone(),
            topology: topo.clone(),
            topo_plan,
            beta_seconds: self.beta_seconds,
            scale: self.scale,
        })
    }
}

/// A planned redistribution: the [`TopoPlan`] plus everything needed to
/// execute or evaluate it.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The traffic matrix the plan was built for.
    pub traffic: TrafficMatrix,
    /// The network it was planned over.
    pub topology: Topology,
    /// The instance, endpoints, validated schedule and lower bound.
    pub topo_plan: TopoPlan,
    /// β in seconds.
    pub beta_seconds: f64,
    /// Tick resolution.
    pub scale: TickScale,
}

impl Plan {
    /// Analytic cost of the schedule in seconds, `Σ (β + step duration)`.
    pub fn cost_seconds(&self) -> f64 {
        self.scale.to_seconds(self.topo_plan.schedule.cost())
    }

    /// The lower bound in seconds ([`kpbs::topo_lower_bound`], the
    /// Cohen–Jeannot–Padoy bound on the two-cluster topology).
    pub fn lower_bound_seconds(&self) -> f64 {
        self.scale.to_seconds(self.topo_plan.lower_bound)
    }

    /// The paper's evaluation ratio: cost / lower bound (1.0 for an empty
    /// plan).
    pub fn evaluation_ratio(&self) -> f64 {
        self.topo_plan.evaluation_ratio()
    }

    /// Simulates the plan on the topology's network with an ideal fluid
    /// transport.
    pub fn simulate_ideal(&self) -> ExecReport {
        let spec = NetworkSpec::from_topology(&self.topology).expect("a planned topology is valid");
        self.simulate(&spec, &SimConfig::default())
    }

    /// Simulates the plan on an arbitrary network and transport model:
    /// each step's flows run on the fluid engine, β is paid per step.
    pub fn simulate(&self, spec: &NetworkSpec, config: &SimConfig) -> ExecReport {
        self.execute(SimTransport::new(spec.clone(), config.clone()))
    }

    /// ASCII Gantt chart of the schedule (see [`kpbs::Schedule::gantt`]).
    pub fn gantt(&self) -> String {
        self.topo_plan.schedule.gantt(72)
    }

    /// Estimated makespan if the global barriers were weakened into
    /// per-node dependencies (the paper's §2.1 post-processing), in seconds.
    pub fn relaxed_estimate_seconds(&self) -> f64 {
        let plan = &self.topo_plan;
        let r = kpbs::relax::relax_k(
            &plan.schedule,
            &plan.instance.graph,
            plan.instance.effective_k(),
        );
        self.scale.to_seconds(r.makespan)
    }

    /// Executes the plan on the threaded MPI-like runtime, moving real
    /// bytes; each step's duration is measured wall-clock time, and β is
    /// paid per step on top.
    pub fn execute_threaded(&self, fabric: mpilite::FabricConfig) -> ExecReport {
        let (n1, n2) = (self.topology.senders(), self.topology.receivers());
        self.execute(MpiTransport::new(n1, n2, fabric))
    }

    /// Runs the held plan fault-free over `transport`, with no step
    /// timeout. [`plan_topology`] already routed and validated it, so it
    /// goes straight to [`Runtime::run_plan`].
    fn execute<T: Transport>(&self, transport: T) -> ExecReport {
        let config = ExecConfig {
            step_timeout_seconds: f64::INFINITY,
            ..ExecConfig::default()
        };
        Runtime::new(transport, FaultPlan::none(), config)
            .run_plan(
                &self.traffic,
                &self.topology,
                self.beta_seconds,
                self.scale,
                &self.topo_plan,
            )
            .expect("a fault-free run of a planned schedule completes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_traffic() -> (TrafficMatrix, Topology) {
        let topo = Topology::two_cluster(3, 3, 100.0, 100.0, 200.0);
        let mut t = TrafficMatrix::zeros(3, 3);
        t.set(0, 0, 10_000_000);
        t.set(0, 1, 4_000_000);
        t.set(1, 1, 8_000_000);
        t.set(2, 2, 6_000_000);
        (t, topo)
    }

    #[test]
    fn all_algorithms_produce_valid_plans() {
        let (t, p) = demo_traffic();
        for name in Algo::NAMES {
            let algo: Algo = name.parse().unwrap();
            let plan = Planner::new(algo).plan(&t, &p).unwrap();
            plan.topo_plan
                .schedule
                .validate(&plan.topo_plan.instance)
                .unwrap_or_else(|e| panic!("{algo:?}: {e}"));
            assert!(plan.evaluation_ratio() >= 1.0 - 1e-9, "{algo:?}");
        }
    }

    #[test]
    fn hier_blocks_one_matches_oggp() {
        let (t, p) = demo_traffic();
        let hier = Planner::new(Algo::Hier(kpbs::HierConfig::new(1)))
            .plan(&t, &p)
            .unwrap();
        let oggp = Planner::new(Algo::Oggp).plan(&t, &p).unwrap();
        assert_eq!(hier.topo_plan.schedule, oggp.topo_plan.schedule);
    }

    #[test]
    fn oggp_not_worse_than_sequential() {
        let (t, p) = demo_traffic();
        let oggp = Planner::new(Algo::Oggp).plan(&t, &p).unwrap();
        let seq = Planner::new(Algo::Sequential).plan(&t, &p).unwrap();
        assert!(oggp.cost_seconds() <= seq.cost_seconds());
    }

    #[test]
    fn beta_zero_supported() {
        let (t, p) = demo_traffic();
        let plan = Planner::new(Algo::Oggp)
            .with_beta(0.0)
            .plan(&t, &p)
            .unwrap();
        assert_eq!(plan.topo_plan.instance.beta, 0);
        assert!(plan
            .topo_plan
            .schedule
            .validate(&plan.topo_plan.instance)
            .is_ok());
    }

    #[test]
    fn simulation_close_to_analytic_cost() {
        let (t, p) = demo_traffic();
        let plan = Planner::new(Algo::Oggp).plan(&t, &p).unwrap();
        let sim = plan.simulate_ideal();
        let analytic = plan.cost_seconds();
        let rel = (sim.total_seconds - analytic).abs() / analytic;
        assert!(
            rel < 0.02,
            "sim {} vs analytic {analytic}",
            sim.total_seconds
        );
    }

    #[test]
    fn plan_sugar() {
        let (t, p) = demo_traffic();
        let plan = Planner::new(Algo::Oggp).plan(&t, &p).unwrap();
        let g = plan.gantt();
        assert!(g.contains('#'), "gantt renders transmissions:\n{g}");
        let relaxed = plan.relaxed_estimate_seconds();
        assert!(relaxed > 0.0);
        assert!(relaxed <= plan.cost_seconds() + 1e-9);
    }

    #[test]
    fn empty_traffic_trivial_plan() {
        let p = Topology::two_cluster(2, 2, 100.0, 100.0, 200.0);
        let t = TrafficMatrix::zeros(2, 2);
        let plan = Planner::new(Algo::Oggp).plan(&t, &p).unwrap();
        assert_eq!(plan.topo_plan.schedule.num_steps(), 0);
        assert_eq!(plan.evaluation_ratio(), 1.0);
    }
}
