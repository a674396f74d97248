//! `exec-faults`: plan a traffic matrix over the two-backbone topology and
//! execute the plan on the flow simulator under injected faults, as library
//! calls on one thread.

use crate::inputs::{self, BETA_SECONDS, EXEC_FAULT_VARIANTS, EXEC_TRAFFIC_POOL, SCALE};
use crate::layers::{self, Work};
use crate::run::{repeated_setup, Outcome, Phase, Quality, RunOpts, Stop, Tally, Window};
use crate::spec;
use crate::stats::median;
use crate::trace::{Recorder, SpanId};
use kpbs::{TopoAlgo, Topology, TrafficMatrix};
use redistexec::transport::StepFaults;
use redistexec::{
    plan_and_execute_topo, ExecConfig, ExecError, ExecReport, FaultPlan, PlanRecord, SimTransport,
    TransferOp, Transport,
};
use std::hint::black_box;
use std::time::{Duration, Instant};
use telemetry::counters::Counter;

/// Length of the cycling op list: op `i` runs traffic matrix `i % 8` under
/// fault variant `(i / 8) % 4`.
const OP_LIST: usize = EXEC_TRAFFIC_POOL * EXEC_FAULT_VARIANTS;

struct Env {
    topo: Topology,
    traffic: Vec<TrafficMatrix>,
    /// `topo_lower_bound` of each traffic matrix, ticks.
    lower_bounds: Vec<u64>,
    /// Virtual seconds a fault-free execution of each matrix takes.
    fault_free_seconds: Vec<f64>,
    /// A fresh simulated transport for the topology; every op clones it
    /// (building one costs a third of an op).
    transport: SimTransport,
    /// The fault plan of each op of the list.
    faults: Vec<FaultPlan>,
    /// Position in the cycling op list.
    cursor: usize,
}

/// Time spent inside the transport during one op.
#[derive(Default)]
struct TransportTime {
    busy: Duration,
    delivers: u64,
    deliver_busy: Duration,
}

/// A transport that times the wrapped one's calls: the benchmark's view of
/// how much of an op is the simulator. The runtime consumes its transport,
/// so the timers live outside it.
struct TimedTransport<'a, T: Transport> {
    inner: T,
    time: &'a mut TransportTime,
}

impl<T: Transport> TimedTransport<'_, T> {
    fn timed<R>(&mut self, deliver: bool, f: impl FnOnce(&mut T) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let elapsed = start.elapsed();
        self.time.busy += elapsed;
        if deliver {
            self.time.delivers += 1;
            self.time.deliver_busy += elapsed;
        }
        out
    }
}

impl<T: Transport> Transport for TimedTransport<'_, T> {
    fn estimate(&mut self, ops: &[TransferOp], slowdown: f64) -> f64 {
        self.timed(false, |t| t.estimate(ops, slowdown))
    }

    fn deliver(&mut self, ops: &[TransferOp], slowdown: f64) -> f64 {
        self.timed(true, |t| t.deliver(ops, slowdown))
    }

    fn delivered(&self) -> &TrafficMatrix {
        self.inner.delivered()
    }

    fn estimate_faulted(&mut self, ops: &[TransferOp], faults: &StepFaults) -> f64 {
        self.timed(false, |t| t.estimate_faulted(ops, faults))
    }

    fn deliver_faulted(&mut self, ops: &[TransferOp], faults: &StepFaults) -> f64 {
        self.timed(true, |t| t.deliver_faulted(ops, faults))
    }
}

fn execute<T: Transport>(
    env: &Env,
    traffic: &TrafficMatrix,
    transport: T,
    faults: FaultPlan,
) -> Result<(PlanRecord, ExecReport), ExecError> {
    plan_and_execute_topo(
        traffic,
        &env.topo,
        BETA_SECONDS,
        SCALE,
        transport,
        faults,
        ExecConfig::default(),
    )
}

/// Builds the pool; the fault-free execution of each matrix is both the
/// `exec_overhead_ratio` baseline and the warm-up.
fn setup(seed: u64) -> Env {
    let topo = inputs::exec_topology();
    let traffic = inputs::exec_traffic(seed, &topo);
    let mut env = Env {
        lower_bounds: traffic
            .iter()
            .map(|t| {
                kpbs::topo_lower_bound(t, &topo, BETA_SECONDS, SCALE).expect("routable traffic")
            })
            .collect(),
        fault_free_seconds: Vec::new(),
        transport: SimTransport::for_topology(&topo).expect("the pinned topology validates"),
        faults: (0..OP_LIST as u64)
            .map(|op| inputs::exec_fault_plan(seed, op, &topo))
            .collect(),
        topo,
        traffic,
        cursor: 0,
    };
    env.fault_free_seconds = env
        .traffic
        .iter()
        .map(|t| {
            let (_, report) = execute(&env, t, env.transport.clone(), FaultPlan::none())
                .expect("fault-free execution");
            report.total_seconds
        })
        .collect();
    env
}

/// Per-op sums the traced run reports.
#[derive(Default)]
struct Layers {
    transport_us: Vec<f64>,
    runtime_us: Vec<f64>,
    deliver_us_per_step: Vec<f64>,
    steps: u64,
    retries: u64,
    replans: u64,
    steps_spliced: u64,
    timeouts: u64,
    executed_seconds: f64,
    fault_free_seconds: f64,
    ops: u64,
}

fn op_loop(
    env: &mut Env,
    stop: Stop,
    origin: Option<Instant>,
    mut layers: Option<&mut Layers>,
) -> (Phase, Recorder) {
    let wall = Instant::now();
    let recorder = Recorder::new(origin.unwrap_or(wall), origin.is_some());
    let list = Quality::over_first(OP_LIST as u64);
    let mut t = Tally::new(stop.capacity(400.0), OP_LIST, list, recorder);
    let phase = &mut t.counts;
    let window = Window::start(stop, 1);
    while window.open(phase.sent) {
        let op = env.cursor;
        env.cursor = (op + 1) % OP_LIST;
        let slot = op % EXEC_TRAFFIC_POOL;
        let traffic = &env.traffic[slot];
        let faults = env.faults[op].clone();
        let id = phase.sent;
        phase.sent += 1;
        // The untraced op drives the simulator directly; the traced one
        // goes through the timing wrapper.
        let mut time = TransportTime::default();
        let inner = env.transport.clone();
        let (result, elapsed) = t.recorder.time("load.execute", SpanId::NONE, id, || {
            if layers.is_some() {
                let timed = TimedTransport {
                    inner,
                    time: &mut time,
                };
                execute(env, black_box(traffic), timed, faults)
            } else {
                execute(env, black_box(traffic), inner, faults)
            }
        });
        t.latency.push(elapsed);
        // After the timer stops: the delivery invariant against the
        // original demand, and every spliced schedule must validate.
        let Ok((initial, report)) = result else {
            phase.errors += 1;
            continue;
        };
        let delivered = report.verify_against(traffic).is_ok();
        let spliced = report
            .plans
            .iter()
            .all(|rec| rec.schedule.validate(&rec.instance).is_ok());
        let cost = initial.schedule.cost();
        if !(delivered && spliced && cost >= env.lower_bounds[slot]) {
            phase.wrong += 1;
            continue;
        }
        phase.ok += 1;
        t.quality.add(cost, env.lower_bounds[slot]);
        if let Some(l) = layers.as_deref_mut() {
            let op_us = elapsed.as_secs_f64() * 1e6;
            let transport_us = time.busy.as_secs_f64() * 1e6;
            l.transport_us.push(transport_us);
            l.runtime_us.push(op_us - transport_us);
            if time.delivers > 0 {
                l.deliver_us_per_step
                    .push(time.deliver_busy.as_secs_f64() * 1e6 / time.delivers as f64);
            }
            l.steps += report.steps.len() as u64;
            l.retries += report.retries;
            l.replans += report.replans;
            l.steps_spliced += report.steps_spliced;
            l.timeouts += report.timeouts;
            l.executed_seconds += report.total_seconds;
            l.fault_free_seconds += env.fault_free_seconds[slot];
            l.ops += 1;
        }
    }
    Phase::merge([t], wall.elapsed())
}

pub fn run(opts: RunOpts) -> Outcome {
    let workload = spec::EXEC_FAULTS;
    let mut out = Outcome::default();
    if !opts.trace {
        let (mut env, setup_s) = repeated_setup(opts.setup_reps, || setup(opts.seed), drop);
        let (phase, _) = op_loop(&mut env, opts.stop, None, None);
        out.set_end_to_end(setup_s, &phase);
        return out;
    }

    let mut env = setup(opts.seed);
    let origin = Instant::now();
    let quarter = opts.stop.scaled(0.25);
    let (untraced, _) = op_loop(&mut env, quarter, None, None);
    // Both halves walk the same stretch of the op list.
    env.cursor = 0;
    let mut layers = Layers::default();
    let mut work = Work::default();
    let (mut traced, mut recorder) =
        work.count(|| op_loop(&mut env, quarter, Some(origin), Some(&mut layers)));
    traced.wrong += untraced.failed();
    out.set_load(&traced);
    out.set(
        "telemetry.trace_overhead_ratio",
        untraced.throughput() / traced.throughput().max(1e-9),
    );

    // kpbs.topo: the initial plan on its own, with the engine's counts.
    let mut plans = Work::default();
    let (mut cost, mut bound) = (0u64, 0u64);
    for (i, traffic) in env.traffic.iter().enumerate() {
        let (plan, _) = recorder.time("kpbs.topo.plan", SpanId::NONE, i as u64, || {
            plans.count(|| {
                kpbs::plan_topology(traffic, &env.topo, BETA_SECONDS, SCALE, TopoAlgo::Oggp)
            })
        });
        let plan = plan.expect("routable traffic plans");
        cost += plan.schedule.cost();
        bound += plan.lower_bound;
    }
    let plan_us = median(&recorder.durations_us("kpbs.topo.plan"));
    out.set("kpbs.topo.plan_us", plan_us);
    out.set(
        "kpbs.topo.cost_over_bound",
        cost as f64 / bound.max(1) as f64,
    );
    plans.report(&mut out);

    let ops = layers.ops.max(1) as f64;
    let transport_us = median(&layers.transport_us);
    // An op is the initial plan, the transport's calls, and the runtime
    // around them (which includes residual replans).
    let runtime_us = median(&layers.runtime_us) - plan_us;
    out.set("redistexec.plan_initial_us", plan_us);
    out.set("redistexec.transport_us", transport_us);
    out.set("redistexec.runtime_us", runtime_us);
    out.set("redistexec.steps", layers.steps as f64 / ops);
    out.set("redistexec.retries", layers.retries as f64 / ops);
    out.set("redistexec.replans", layers.replans as f64 / ops);
    out.set(
        "redistexec.steps_spliced",
        layers.steps_spliced as f64 / ops,
    );
    out.set("redistexec.timeouts", layers.timeouts as f64 / ops);
    out.set(
        "redistexec.exec_overhead_ratio",
        layers.executed_seconds / layers.fault_free_seconds.max(1e-9),
    );
    out.set(
        "flowsim.events",
        work.total(Counter::FlowsimEvents) as f64 / ops,
    );
    out.set(
        "flowsim.fairshare_rounds",
        work.total(Counter::FairshareRounds) as f64 / ops,
    );
    out.set(
        "flowsim.deliver_us_per_step",
        median(&layers.deliver_us_per_step),
    );
    layers::print_budget(
        workload,
        traced.latency.median(),
        &[
            ("redistexec.plan_initial", plan_us),
            ("redistexec.transport", transport_us),
            ("redistexec.runtime", runtime_us),
        ],
    );
    layers::write_spans(workload, &recorder);
    out
}
