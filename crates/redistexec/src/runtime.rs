//! The step-driven execution loop.
//!
//! [`Runtime::run_plan`] drives a [`TopoPlan`] to completion over a
//! [`Transport`], consulting a [`FaultPlan`] at every step
//! ([`Runtime::execute`] routes and validates a schedule planned elsewhere
//! first):
//!
//! 1. **Node drops** due at the current slot mark nodes dead and force a
//!    residual replan before anything else runs.
//! 2. **Slowdowns** stretch the step; if the projected duration exceeds the
//!    per-step timeout the step is aborted (no bytes move) and a replan is
//!    forced.
//! 3. **Transient failures** hit individual transfers: each failed attempt
//!    is retried with capped exponential backoff (virtual time, in ticks)
//!    up to four attempts; exhaustion turns the failure permanent, the
//!    op's bytes fall through to the residual, and a replan is forced.
//!
//! A *replan* computes the residual matrix (original demand minus the
//! transport's delivery ledger, restricted to surviving nodes — see
//! [`kpbs::residual`]), schedules it over the run's [`Topology`] with
//! [`ExecConfig::algo`] through [`kpbs::plan_topology`] (the same planner
//! as the initial plan, so every backbone keeps its own `k_b`), and splices
//! the new steps in place of everything not yet executed. Execution slots
//! keep counting across splices, so later fault events land on spliced
//! steps.
//!
//! Termination is structural: every replan is triggered by the consumption
//! of at least one event of the (finite) fault plan, and a budget of
//! `event_count() + 4` replans turns any pathological configuration
//! (e.g. a timeout shorter than any step can run) into
//! [`ExecError::BudgetExhausted`] instead of a loop.
//!
//! With an empty fault plan the loop degenerates to plain schedule
//! execution: the executed steps are byte-identical to [`step_ops`] of the
//! initial plan — the invariant the campaign proptest pins.

use std::collections::VecDeque;

use crate::faults::FaultPlan;
use crate::replan::step_ops;
use crate::residual::{outstanding, Liveness};
use crate::transport::{TransferOp, Transport};
use kpbs::traffic::TickScale;
use kpbs::validate::ValidationError;
use kpbs::{plan_topology, Algo, Schedule, TopoError, TopoPlan, Topology, TrafficMatrix};
use telemetry::counters::{self, Counter};
use telemetry::metrics::{CounterHandle, Registry};
use telemetry::spans;

/// Attempts per transfer before a transient failure turns permanent (the
/// first attempt counts).
const MAX_ATTEMPTS: u32 = 4;
/// Backoff before the first retry, in ticks.
const BACKOFF_BASE_TICKS: u64 = 50;
/// Backoff ceiling, in ticks (`min(cap, base << attempt)`).
const BACKOFF_CAP_TICKS: u64 = 1_600;

/// The planner and step-timeout knobs of a run.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Planner for the initial plan and every residual replan.
    pub algo: Algo,
    /// A step whose projected duration exceeds this is aborted and
    /// re-planned.
    pub step_timeout_seconds: f64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            algo: Algo::Oggp,
            step_timeout_seconds: 3_600.0,
        }
    }
}

/// Per-step execution metrics published into a [`Registry`].
///
/// The handles mirror the [`ExecReport`] totals but update *live*, step by
/// step, so a scrape taken mid-run sees progress. All are monotonic
/// counters; cloning shares the underlying series, and registering twice
/// against the same registry returns handles to the same series.
#[derive(Debug, Clone)]
pub struct ExecMetrics {
    /// Steps executed, including aborted and empty ones.
    pub steps: CounterHandle,
    /// Transfer re-attempts after transient faults.
    pub retries: CounterHandle,
    /// Virtual ticks spent in retry backoff.
    pub backoff_ticks: CounterHandle,
    /// Residual re-planning rounds.
    pub replans: CounterHandle,
    /// Steps spliced into the running schedule by replans.
    pub steps_spliced: CounterHandle,
    /// Fault events injected (transients, drops, slowdowns).
    pub faults_injected: CounterHandle,
    /// Steps aborted by the per-step timeout.
    pub timeouts: CounterHandle,
    /// Bytes delivered by completed runs.
    pub delivered_bytes: CounterHandle,
}

impl ExecMetrics {
    /// Registers (or re-attaches to) the `redistexec_*` counter families.
    pub fn register(registry: &Registry) -> ExecMetrics {
        ExecMetrics {
            steps: registry.counter(
                "redistexec_steps_total",
                "Steps executed, including aborted and empty steps.",
                &[],
            ),
            retries: registry.counter(
                "redistexec_retries_total",
                "Transfer re-attempts after transient faults.",
                &[],
            ),
            backoff_ticks: registry.counter(
                "redistexec_backoff_ticks_total",
                "Virtual ticks spent in retry backoff.",
                &[],
            ),
            replans: registry.counter(
                "redistexec_replans_total",
                "Residual re-planning rounds.",
                &[],
            ),
            steps_spliced: registry.counter(
                "redistexec_steps_spliced_total",
                "Steps spliced into the running schedule by replans.",
                &[],
            ),
            faults_injected: registry.counter(
                "redistexec_faults_injected_total",
                "Fault events injected (transients, drops, slowdowns).",
                &[],
            ),
            timeouts: registry.counter(
                "redistexec_timeouts_total",
                "Steps aborted by the per-step timeout.",
                &[],
            ),
            delivered_bytes: registry.counter(
                "redistexec_delivered_bytes_total",
                "Bytes delivered by completed runs.",
                &[],
            ),
        }
    }
}

/// One executed (or aborted) step.
#[derive(Debug, Clone)]
pub struct ExecutedStep {
    /// Execution slot the step ran at (monotone across splices).
    pub slot: u64,
    /// The transfers actually delivered (empty for aborted steps).
    pub ops: Vec<TransferOp>,
    /// Transport time of the step, seconds.
    pub seconds: f64,
    /// Virtual time spent in retry backoff during the step, seconds.
    pub backoff_seconds: f64,
    /// True when the step was aborted by the per-step timeout.
    pub timed_out: bool,
}

/// Everything an execution produced, for reporting and verification.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Executed steps in order (one entry per slot, including aborted and
    /// empty steps).
    pub steps: Vec<ExecutedStep>,
    /// Total virtual time: per-step β + transport time + backoff.
    pub total_seconds: f64,
    /// Transfer re-attempts after transient faults.
    pub retries: u64,
    /// Residual re-planning rounds.
    pub replans: u64,
    /// Fault events injected (transients, drops, slowdowns).
    pub faults_injected: u64,
    /// Steps spliced into the running schedule by replans.
    pub steps_spliced: u64,
    /// Steps aborted by the per-step timeout.
    pub timeouts: u64,
    /// Per-sender liveness at the end of the run.
    pub senders_alive: Vec<bool>,
    /// Per-receiver liveness at the end of the run.
    pub receivers_alive: Vec<bool>,
    /// Every residual replan round, in order (initial plan excluded).
    pub plans: Vec<TopoPlan>,
    /// Final per-pair delivery ledger.
    pub delivered: TrafficMatrix,
}

impl ExecReport {
    /// Checks the delivery invariant against the original demand: pairs
    /// whose endpoints survived received *exactly* their bytes; pairs with
    /// a dead endpoint received at most theirs (partial delivery before
    /// the drop is fine).
    pub fn verify_against(&self, original: &TrafficMatrix) -> Result<(), String> {
        for i in 0..original.senders() {
            for j in 0..original.receivers() {
                let want = original.get(i, j);
                let got = self.delivered.get(i, j);
                let alive = self.senders_alive[i] && self.receivers_alive[j];
                if alive && got != want {
                    return Err(format!(
                        "pair ({i},{j}) alive but delivered {got} of {want} bytes"
                    ));
                }
                if !alive && got > want {
                    return Err(format!(
                        "pair ({i},{j}) over-delivered: {got} of {want} bytes"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Execution failures.
#[derive(Debug)]
pub enum ExecError {
    /// The initial schedule does not validate against the traffic matrix's
    /// instance.
    InvalidSchedule(ValidationError),
    /// More replan rounds than the budget allows — the configuration cannot
    /// make progress (e.g. a timeout shorter than any step can run).
    BudgetExhausted {
        /// Replan rounds performed before giving up.
        replans: u64,
    },
    /// The loop drained with surviving-pair bytes still owed (a runtime
    /// bug; surfaced rather than silently under-delivered).
    Incomplete {
        /// Bytes still owed to surviving pairs.
        missing_bytes: u64,
    },
    /// Routing or planning over the topology failed — the initial plan or
    /// a residual replan: invalid topology, traffic of the wrong shape,
    /// unroutable traffic, or a composition bug.
    PlanningFailed(TopoError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::InvalidSchedule(e) => write!(f, "initial schedule invalid: {e}"),
            ExecError::BudgetExhausted { replans } => {
                write!(f, "replan budget exhausted after {replans} rounds")
            }
            ExecError::Incomplete { missing_bytes } => {
                write!(
                    f,
                    "execution drained with {missing_bytes} bytes undelivered"
                )
            }
            ExecError::PlanningFailed(e) => write!(f, "topology planning failed: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A fault-tolerant schedule executor over a transport.
#[derive(Debug)]
pub struct Runtime<T: Transport> {
    transport: T,
    faults: FaultPlan,
    config: ExecConfig,
    metrics: Option<ExecMetrics>,
    rid: u64,
}

impl<T: Transport> Runtime<T> {
    /// Builds a runtime from a transport, a fault plan and config.
    pub fn new(transport: T, faults: FaultPlan, config: ExecConfig) -> Self {
        Runtime {
            transport,
            faults,
            config,
            metrics: None,
            rid: 0,
        }
    }

    /// Publishes per-step execution metrics into `metrics` as the run
    /// progresses (in addition to the [`ExecReport`] totals).
    pub fn with_metrics(mut self, metrics: ExecMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Labels every span this runtime emits with the owning request id
    /// (`rid`), joining the execution timeline to the request that caused
    /// it. `0` (the default) means "not correlated".
    pub fn with_correlation_id(mut self, rid: u64) -> Self {
        self.rid = rid;
        self
    }

    /// Executes `schedule` — planned for `traffic` over `topo` with the
    /// given `beta_seconds`/`scale` — to completion under the fault plan.
    /// The schedule is validated against the routed instance
    /// ([`kpbs::topo_instance`]) first, then run by [`Runtime::run_plan`].
    pub fn execute(
        &mut self,
        traffic: &TrafficMatrix,
        topo: &Topology,
        beta_seconds: f64,
        scale: TickScale,
        schedule: &Schedule,
    ) -> Result<ExecReport, ExecError> {
        let routed = kpbs::topo_instance(traffic, topo, beta_seconds, scale)
            .map_err(ExecError::PlanningFailed)?;
        schedule
            .validate(&routed.instance)
            .map_err(ExecError::InvalidSchedule)?;
        // Only the schedule is read from here on: the per-link summaries and
        // the bound stay empty.
        let initial = TopoPlan {
            instance: routed.instance,
            endpoints: routed.endpoints,
            bytes: routed.bytes,
            schedule: schedule.clone(),
            link_plans: Vec::new(),
            lower_bound: 0,
        };
        self.run_plan(traffic, topo, beta_seconds, scale, &initial)
    }

    /// Executes `initial` — [`plan_topology`] of `traffic` over `topo` with
    /// the given `beta_seconds`/`scale`, so already routed and validated —
    /// to completion under the fault plan. This is the one pre-planned
    /// entry: [`plan_and_execute_topo`] and [`Runtime::execute`] both end
    /// here, and residual replans go through [`plan_topology`] on the same
    /// topology.
    pub fn run_plan(
        &mut self,
        traffic: &TrafficMatrix,
        topo: &Topology,
        beta_seconds: f64,
        scale: TickScale,
        initial: &TopoPlan,
    ) -> Result<ExecReport, ExecError> {
        let budget = self.faults.event_count() as u64 + 4;
        let mut queue: VecDeque<Vec<TransferOp>> = step_ops(initial).into();
        let mut liveness = Liveness::all_alive(traffic.senders(), traffic.receivers());
        let mut report = ExecReport {
            steps: Vec::new(),
            total_seconds: 0.0,
            retries: 0,
            replans: 0,
            faults_injected: 0,
            steps_spliced: 0,
            timeouts: 0,
            senders_alive: Vec::new(),
            receivers_alive: Vec::new(),
            plans: Vec::new(),
            delivered: TrafficMatrix::zeros(traffic.senders(), traffic.receivers()),
        };
        let mut drop_cursor = 0usize;
        let mut nic_cursor = 0usize;
        let mut link_cursor = 0usize;
        let mut needs_replan = false;
        let mut slot: u64 = 0;

        loop {
            // Node drops due at (or before) this slot take effect first.
            while drop_cursor < self.faults.drops().len()
                && self.faults.drops()[drop_cursor].0 <= slot
            {
                let (_, node) = self.faults.drops()[drop_cursor];
                drop_cursor += 1;
                if liveness.kill(node) {
                    report.faults_injected += 1;
                    counters::incr(Counter::ExecFaultsInjected);
                    if let Some(m) = &self.metrics {
                        m.faults_injected.inc();
                    }
                    needs_replan = true;
                }
            }

            // NIC slowdowns and link degradations newly in force are
            // counted once as injected faults; they shape steps through
            // `step_faults` from here on but never force a replan (the
            // plan stays valid — only its timing stretches).
            while nic_cursor < self.faults.nic_slowdowns().len()
                && self.faults.nic_slowdowns()[nic_cursor].0 <= slot
            {
                nic_cursor += 1;
                report.faults_injected += 1;
                counters::incr(Counter::ExecFaultsInjected);
                if let Some(m) = &self.metrics {
                    m.faults_injected.inc();
                }
            }
            while link_cursor < self.faults.link_degradations().len()
                && self.faults.link_degradations()[link_cursor].0 <= slot
            {
                link_cursor += 1;
                report.faults_injected += 1;
                counters::incr(Counter::ExecFaultsInjected);
                if let Some(m) = &self.metrics {
                    m.faults_injected.inc();
                }
            }

            if needs_replan {
                needs_replan = false;
                report.replans += 1;
                counters::incr(Counter::ExecReplans);
                if let Some(m) = &self.metrics {
                    m.replans.inc();
                }
                if report.replans > budget {
                    return Err(ExecError::BudgetExhausted {
                        replans: report.replans,
                    });
                }
                let _g = spans::span_with(
                    "redistexec.replan",
                    &[("rid", self.rid), ("round", report.replans)],
                );
                let residual = outstanding(traffic, &self.transport, &liveness);
                queue.clear();
                if residual.total_bytes() > 0 {
                    let rec = plan_topology(&residual, topo, beta_seconds, scale, self.config.algo)
                        .map_err(ExecError::PlanningFailed)?;
                    let steps = step_ops(&rec);
                    report.steps_spliced += steps.len() as u64;
                    counters::add(Counter::ExecStepsSpliced, steps.len() as u64);
                    if let Some(m) = &self.metrics {
                        m.steps_spliced.add(steps.len() as u64);
                    }
                    queue.extend(steps);
                    report.plans.push(rec);
                }
            }

            let Some(ops) = queue.pop_front() else {
                break;
            };
            let _sg = spans::span_with("redistexec.step", &[("rid", self.rid), ("slot", slot)]);
            if let Some(m) = &self.metrics {
                m.steps.inc();
            }

            // Defensive: a pair with a dead endpoint can never deliver; its
            // bytes fall through to the residual of the forced replan.
            let alive_ops: Vec<TransferOp> = ops
                .iter()
                .copied()
                .filter(|op| liveness.pair_alive(op.src, op.dst))
                .collect();
            if alive_ops.len() != ops.len() {
                needs_replan = true;
            }

            let shaping = self
                .faults
                .step_faults(slot, traffic.senders(), traffic.receivers());
            if shaping.slowdown != 1.0 {
                report.faults_injected += 1;
                counters::incr(Counter::ExecFaultsInjected);
                if let Some(m) = &self.metrics {
                    m.faults_injected.inc();
                }
            }

            if !alive_ops.is_empty() {
                let projected = self.transport.estimate_faulted(&alive_ops, &shaping);
                if projected > self.config.step_timeout_seconds {
                    report.timeouts += 1;
                    if let Some(m) = &self.metrics {
                        m.timeouts.inc();
                    }
                    needs_replan = true;
                    report.total_seconds += beta_seconds;
                    report.steps.push(ExecutedStep {
                        slot,
                        ops: Vec::new(),
                        seconds: 0.0,
                        backoff_seconds: 0.0,
                        timed_out: true,
                    });
                    slot += 1;
                    continue;
                }
            }

            let mut deliver_ops = Vec::with_capacity(alive_ops.len());
            let mut backoff_ticks: u64 = 0;
            for (idx, op) in alive_ops.iter().enumerate() {
                let fails = self.faults.transient_failures(slot, idx);
                if fails == 0 {
                    deliver_ops.push(*op);
                    continue;
                }
                report.faults_injected += 1;
                counters::incr(Counter::ExecFaultsInjected);
                let _rg = spans::span_with(
                    "redistexec.retry",
                    &[
                        ("rid", self.rid),
                        ("slot", slot),
                        ("src", op.src as u64),
                        ("dst", op.dst as u64),
                    ],
                );
                let permanent = fails >= MAX_ATTEMPTS;
                let retry_count = if permanent { MAX_ATTEMPTS - 1 } else { fails };
                report.retries += retry_count as u64;
                counters::add(Counter::ExecRetries, retry_count as u64);
                let mut op_ticks: u64 = 0;
                let mut b = BACKOFF_BASE_TICKS;
                for _ in 0..retry_count {
                    op_ticks += b.min(BACKOFF_CAP_TICKS);
                    b = b.saturating_mul(2).min(BACKOFF_CAP_TICKS);
                }
                backoff_ticks += op_ticks;
                if op_ticks > 0 {
                    spans::instant_with(
                        "redistexec.backoff",
                        &[("rid", self.rid), ("slot", slot), ("ticks", op_ticks)],
                    );
                }
                if let Some(m) = &self.metrics {
                    m.faults_injected.inc();
                    m.retries.add(retry_count as u64);
                    m.backoff_ticks.add(op_ticks);
                }
                if permanent {
                    needs_replan = true;
                } else {
                    deliver_ops.push(*op);
                }
            }

            let seconds = if deliver_ops.is_empty() {
                0.0
            } else {
                self.transport.deliver_faulted(&deliver_ops, &shaping)
            };
            let backoff_seconds = backoff_ticks as f64 / scale.ticks_per_second;
            report.total_seconds += beta_seconds + seconds + backoff_seconds;
            report.steps.push(ExecutedStep {
                slot,
                ops: deliver_ops,
                seconds,
                backoff_seconds,
                timed_out: false,
            });
            slot += 1;
        }

        let leftover = outstanding(traffic, &self.transport, &liveness);
        if leftover.total_bytes() > 0 {
            return Err(ExecError::Incomplete {
                missing_bytes: leftover.total_bytes(),
            });
        }
        report.senders_alive = liveness.senders().to_vec();
        report.receivers_alive = liveness.receivers().to_vec();
        report.delivered = self.transport.delivered().clone();
        if let Some(m) = &self.metrics {
            m.delivered_bytes.add(report.delivered.total_bytes());
        }
        Ok(report)
    }
}

/// Plans `traffic` over `topo` with `config.algo` (per-backbone `k`,
/// composed schedule — see [`kpbs::plan_topology`]) and executes the plan
/// under the fault plan in one call. A [`kpbs::Platform`] runs as
/// [`Topology::from_platform`].
pub fn plan_and_execute_topo<T: Transport>(
    traffic: &TrafficMatrix,
    topo: &Topology,
    beta_seconds: f64,
    scale: TickScale,
    transport: T,
    faults: FaultPlan,
    config: ExecConfig,
) -> Result<(TopoPlan, ExecReport), ExecError> {
    let initial = plan_topology(traffic, topo, beta_seconds, scale, config.algo)
        .map_err(ExecError::PlanningFailed)?;
    let report = Runtime::new(transport, faults, config).run_plan(
        traffic,
        topo,
        beta_seconds,
        scale,
        &initial,
    )?;
    Ok((initial, report))
}

/// Executes `schedule` fault-free over `transport`: the paper's scheduled
/// arm, β paid per step. No step timeout applies, so a plain run never
/// aborts or replans.
///
/// # Panics
///
/// Panics when the schedule does not validate against the traffic's
/// instance on `topo`.
pub fn execute_fault_free<T: Transport>(
    transport: T,
    traffic: &TrafficMatrix,
    topo: &Topology,
    beta_seconds: f64,
    scale: TickScale,
    schedule: &Schedule,
) -> ExecReport {
    let config = ExecConfig {
        step_timeout_seconds: f64::INFINITY,
        ..ExecConfig::default()
    };
    Runtime::new(transport, FaultPlan::none(), config)
        .execute(traffic, topo, beta_seconds, scale, schedule)
        .expect("a fault-free run of a valid schedule completes")
}

/// Runs the paper's brute-force arm (§5.2) over `transport` and returns its
/// duration in seconds: every non-zero message of `traffic` starts at once,
/// in one unconstrained [`Transport::deliver`] call carrying the messages in
/// row-major order, and the transport's model of the network sorts out the
/// contention. No schedule, no β and no 1-port or `k` check: that is the
/// baseline the scheduled arm is measured against.
///
/// # Panics
///
/// Panics when the transport's ledger afterwards differs from `traffic`
/// (a transport that already carried bytes, or one that lost some).
pub fn brute_force<T: Transport>(mut transport: T, traffic: &TrafficMatrix) -> f64 {
    let _span = spans::span("redistexec.brute_force");
    let ops: Vec<TransferOp> = (0..traffic.senders())
        .flat_map(|src| (0..traffic.receivers()).map(move |dst| (src, dst)))
        .map(|(src, dst)| TransferOp {
            src,
            dst,
            bytes: traffic.get(src, dst),
        })
        .filter(|op| op.bytes > 0)
        .collect();
    let seconds = transport.deliver(&ops, 1.0);
    assert!(
        transport.delivered() == traffic,
        "brute force delivered other bytes than the traffic matrix"
    );
    seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultSpec, NodeRef};
    use crate::transport::LoopbackTransport;

    fn workload() -> (TrafficMatrix, Topology) {
        let mut m = TrafficMatrix::zeros(3, 3);
        m.set(0, 0, 12_000_000);
        m.set(0, 1, 5_000_000);
        m.set(1, 0, 8_000_000);
        m.set(1, 2, 9_000_000);
        m.set(2, 1, 6_000_000);
        m.set(2, 2, 11_000_000);
        (m, Topology::two_cluster(3, 3, 100.0, 100.0, 200.0))
    }

    fn run_with(faults: FaultPlan, config: ExecConfig) -> (TrafficMatrix, ExecReport) {
        let (m, topo) = workload();
        let transport = LoopbackTransport::for_topology(&topo);
        let (_, report) = plan_and_execute_topo(
            &m,
            &topo,
            0.05,
            TickScale::MILLIS,
            transport,
            faults,
            config,
        )
        .unwrap();
        (m, report)
    }

    /// The OGGP plan of the workload executed by a runtime that publishes
    /// into `metrics` (when given) and labels its spans with `rid`.
    fn run_observed(
        faults: FaultPlan,
        metrics: Option<ExecMetrics>,
        rid: u64,
    ) -> (TrafficMatrix, ExecReport) {
        let (m, topo) = workload();
        let initial = plan_topology(&m, &topo, 0.05, TickScale::MILLIS, Algo::Oggp).unwrap();
        let transport = LoopbackTransport::for_topology(&topo);
        let mut rt =
            Runtime::new(transport, faults, ExecConfig::default()).with_correlation_id(rid);
        if let Some(metrics) = metrics {
            rt = rt.with_metrics(metrics);
        }
        let report = rt
            .run_plan(&m, &topo, 0.05, TickScale::MILLIS, &initial)
            .unwrap();
        (m, report)
    }

    #[test]
    fn zero_faults_is_plain_execution() {
        let (m, topo) = workload();
        let initial = plan_topology(&m, &topo, 0.05, TickScale::MILLIS, Algo::Oggp).unwrap();
        let transport = LoopbackTransport::for_topology(&topo);
        let mut rt = Runtime::new(transport, FaultPlan::none(), ExecConfig::default());
        let report = rt
            .execute(&m, &topo, 0.05, TickScale::MILLIS, &initial.schedule)
            .unwrap();
        report.verify_against(&m).unwrap();
        assert_eq!(report.retries, 0);
        assert_eq!(report.replans, 0);
        assert_eq!(report.faults_injected, 0);
        assert_eq!(report.steps_spliced, 0);
        assert_eq!(report.timeouts, 0);
        // Byte-identical to the plain byte_slices expansion of the plan.
        let plain = step_ops(&initial);
        assert_eq!(report.steps.len(), plain.len());
        for (got, want) in report.steps.iter().zip(&plain) {
            assert_eq!(&got.ops, want);
            assert!((got.backoff_seconds) == 0.0);
            assert!(!got.timed_out);
        }
    }

    #[test]
    fn transient_fault_retries_and_recovers() {
        let mut faults = FaultPlan::none();
        // Two consecutive failures on op 0 of slot 0: recovered on the
        // third attempt (max_attempts 4) — no replan.
        faults.insert_transient(0, 0, 2);
        let (m, report) = run_with(faults, ExecConfig::default());
        report.verify_against(&m).unwrap();
        assert_eq!(report.retries, 2);
        assert_eq!(report.replans, 0);
        assert_eq!(report.faults_injected, 1);
        // Backoff of 50 + 100 ticks = 0.15 s at millisecond scale.
        let backoff: f64 = report.steps.iter().map(|s| s.backoff_seconds).sum();
        assert!((backoff - 0.15).abs() < 1e-9, "backoff {backoff}");
    }

    #[test]
    fn retry_exhaustion_forces_replan() {
        let mut faults = FaultPlan::none();
        faults.insert_transient(0, 0, 10); // >= max_attempts
        let (m, report) = run_with(faults, ExecConfig::default());
        report.verify_against(&m).unwrap();
        assert_eq!(report.replans, 1);
        assert_eq!(report.retries, 3, "max_attempts - 1 re-attempts");
        assert!(report.steps_spliced > 0, "residual steps spliced");
        assert_eq!(report.plans.len(), 1);
        for rec in &report.plans {
            rec.schedule.validate(&rec.instance).unwrap();
        }
    }

    #[test]
    fn node_drop_replans_on_survivors() {
        let mut faults = FaultPlan::none();
        faults.push_drop(1, NodeRef::Sender(2));
        let (m, report) = run_with(faults, ExecConfig::default());
        report.verify_against(&m).unwrap();
        assert_eq!(report.senders_alive, vec![true, true, false]);
        assert!(report.replans >= 1);
        // Dead sender's rows never over-deliver; surviving rows complete.
        assert_eq!(report.delivered.get(0, 0), m.get(0, 0));
        assert!(report.delivered.get(2, 1) <= m.get(2, 1));
    }

    #[test]
    fn slowdown_beyond_timeout_aborts_and_replans() {
        let mut faults = FaultPlan::none();
        faults.push_slowdown(0, 8.0);
        let config = ExecConfig {
            // The largest first-step op at 12.5 MB/s runs ~1 s; ×8 breaches
            // a 5 s timeout.
            step_timeout_seconds: 5.0,
            ..ExecConfig::default()
        };
        let (m, report) = run_with(faults, config);
        report.verify_against(&m).unwrap();
        assert_eq!(report.timeouts, 1);
        assert!(report.steps[0].timed_out);
        assert!(report.steps[0].ops.is_empty(), "aborted step moved nothing");
        assert!(report.replans >= 1);
    }

    #[test]
    fn impossible_timeout_exhausts_budget() {
        let config = ExecConfig {
            step_timeout_seconds: 1e-9,
            ..ExecConfig::default()
        };
        let (m, topo) = workload();
        let transport = LoopbackTransport::for_topology(&topo);
        let err = plan_and_execute_topo(
            &m,
            &topo,
            0.05,
            TickScale::MILLIS,
            transport,
            FaultPlan::none(),
            config,
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::BudgetExhausted { .. }), "{err}");
    }

    #[test]
    fn invalid_schedule_rejected() {
        let (m, topo) = workload();
        let transport = LoopbackTransport::for_topology(&topo);
        let mut rt = Runtime::new(transport, FaultPlan::none(), ExecConfig::default());
        let err = rt
            .execute(&m, &topo, 0.05, TickScale::MILLIS, &Schedule::new(50))
            .unwrap_err();
        assert!(matches!(err, ExecError::InvalidSchedule(_)), "{err}");
    }

    #[test]
    fn exec_metrics_track_report_totals() {
        let registry = telemetry::metrics::Registry::default();
        let handles = ExecMetrics::register(&registry);
        let mut faults = FaultPlan::none();
        faults.insert_transient(0, 0, 10); // exhausts retries, forces a replan
        let (m, report) = run_observed(faults, Some(handles.clone()), 42);
        report.verify_against(&m).unwrap();
        assert_eq!(handles.retries.value(), report.retries);
        assert_eq!(handles.replans.value(), report.replans);
        assert_eq!(handles.faults_injected.value(), report.faults_injected);
        assert_eq!(handles.steps_spliced.value(), report.steps_spliced);
        assert_eq!(handles.timeouts.value(), report.timeouts);
        assert_eq!(handles.steps.value(), report.steps.len() as u64);
        assert_eq!(
            handles.delivered_bytes.value(),
            report.delivered.total_bytes()
        );
        assert!(handles.backoff_ticks.value() > 0, "retries accrued backoff");
        let text = registry.render();
        telemetry::metrics::validate_exposition(&text).unwrap();
        assert!(text.contains("redistexec_retries_total"));
    }

    #[test]
    fn spans_carry_correlation_labels() {
        let mut faults = FaultPlan::none();
        faults.insert_transient(0, 0, 2); // recovered retry: backoff instant
        spans::enable();
        let (m, report) = run_observed(faults, None, 77);
        spans::disable();
        let events = spans::drain_all();
        report.verify_against(&m).unwrap();
        let with_rid = |name: &str| {
            events
                .iter()
                .filter(|e| e.name == name && e.args.get("rid") == Some(77))
                .count()
        };
        assert!(with_rid("redistexec.step") > 0, "step spans labelled");
        assert!(with_rid("redistexec.retry") > 0, "retry spans labelled");
        assert!(with_rid("redistexec.backoff") > 0, "backoff instants");
        let retry = events
            .iter()
            .find(|e| e.name == "redistexec.retry")
            .unwrap();
        assert!(retry.args.get("slot").is_some());
        assert!(retry.args.get("src").is_some());
        assert!(retry.args.get("dst").is_some());
        let backoff = events
            .iter()
            .find(|e| e.name == "redistexec.backoff")
            .unwrap();
        // 50 + 100 ticks of capped exponential backoff for two retries.
        assert_eq!(backoff.args.get("ticks"), Some(150));
    }

    #[test]
    fn nic_and_link_faults_stretch_but_deliver_exactly() {
        let mut faults = FaultPlan::none();
        faults.push_nic_slowdown(0, NodeRef::Sender(0), 4.0);
        faults.push_link_degradation(1, 0, 2.0);
        let (m, clean) = run_with(FaultPlan::none(), ExecConfig::default());
        let (_, report) = run_with(faults, ExecConfig::default());
        report.verify_against(&m).unwrap();
        assert_eq!(report.delivered.total_bytes(), m.total_bytes());
        assert_eq!(report.replans, 0, "shaping faults never force a replan");
        assert_eq!(report.faults_injected, 2, "both events counted once");
        assert!(
            report.total_seconds > clean.total_seconds,
            "a 4× slower sender NIC must stretch the run ({} vs {})",
            report.total_seconds,
            clean.total_seconds
        );
    }

    #[test]
    fn fault_event_order_is_slot_deterministic() {
        // The same fault events pushed in opposite orders must produce
        // byte- and time-identical executions (regression for the
        // event-list-order sensitivity of composed same-slot faults).
        let build = |reverse: bool| {
            let mut p = FaultPlan::none();
            let events: &mut dyn Iterator<Item = usize> = if reverse {
                &mut (0..4usize).rev()
            } else {
                &mut (0..4usize)
            };
            for e in events {
                match e {
                    0 => p.push_drop(1, NodeRef::Receiver(2)),
                    1 => p.push_slowdown(1, 2.0),
                    2 => p.push_nic_slowdown(1, NodeRef::Sender(1), 3.0),
                    _ => p.push_nic_slowdown(1, NodeRef::Sender(1), 1.5),
                }
            }
            p
        };
        assert_eq!(build(false), build(true));
        let (m, a) = run_with(build(false), ExecConfig::default());
        let (_, b) = run_with(build(true), ExecConfig::default());
        a.verify_against(&m).unwrap();
        assert_eq!(a.steps.len(), b.steps.len());
        for (sa, sb) in a.steps.iter().zip(&b.steps) {
            assert_eq!(sa.ops, sb.ops, "slot {} ops diverged", sa.slot);
            assert_eq!(sa.seconds, sb.seconds, "slot {} timing", sa.slot);
        }
        assert_eq!(a.total_seconds, b.total_seconds);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.replans, b.replans);
        assert_eq!(a.faults_injected, b.faults_injected);
    }

    #[test]
    fn topo_plan_and_execute_two_backbones() {
        let topo = kpbs::instances::two_backbone_topology(2, 100.0, 50.0, 200.0, 60.0);
        let mut m = TrafficMatrix::zeros(4, 4);
        m.set(0, 1, 9_000_000);
        m.set(1, 0, 4_000_000);
        m.set(2, 3, 6_000_000);
        m.set(3, 2, 2_000_000);
        let transport = crate::transport::SimTransport::for_topology(&topo).unwrap();
        let (initial, report) = plan_and_execute_topo(
            &m,
            &topo,
            0.05,
            TickScale::MILLIS,
            transport,
            FaultPlan::none(),
            ExecConfig::default(),
        )
        .unwrap();
        report.verify_against(&m).unwrap();
        initial.schedule.validate(&initial.instance).unwrap();
        assert_eq!(report.delivered.total_bytes(), m.total_bytes());

        // A drop on the slow side forces a topology-aware residual replan;
        // surviving pairs (including fast-link ones) still complete.
        let mut faults = FaultPlan::none();
        faults.push_drop(1, NodeRef::Receiver(2));
        let transport = crate::transport::SimTransport::for_topology(&topo).unwrap();
        let (_, report) = plan_and_execute_topo(
            &m,
            &topo,
            0.05,
            TickScale::MILLIS,
            transport,
            faults,
            ExecConfig::default(),
        )
        .unwrap();
        report.verify_against(&m).unwrap();
        assert!(report.replans >= 1);
        assert_eq!(report.delivered.get(0, 1), m.get(0, 1));
        for rec in &report.plans {
            rec.schedule.validate(&rec.instance).unwrap();
        }

        // Dimension mismatch is caught before planning.
        let transport = LoopbackTransport::new(3, 3, 1e6);
        let err = plan_and_execute_topo(
            &TrafficMatrix::zeros(3, 3),
            &topo,
            0.05,
            TickScale::MILLIS,
            transport,
            FaultPlan::none(),
            ExecConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::PlanningFailed(TopoError::DimensionMismatch(_))
            ),
            "{err}"
        );
    }

    #[test]
    fn seeded_campaign_smoke() {
        for seed in 0..20 {
            let (m, topo) = workload();
            let faults = FaultPlan::generate(seed, 3, 3, &FaultSpec::default());
            let transport = LoopbackTransport::for_topology(&topo);
            let (_, report) = plan_and_execute_topo(
                &m,
                &topo,
                0.05,
                TickScale::MILLIS,
                transport,
                faults,
                ExecConfig::default(),
            )
            .unwrap();
            report.verify_against(&m).unwrap();
            for rec in &report.plans {
                rec.schedule.validate(&rec.instance).unwrap();
            }
        }
    }
}
