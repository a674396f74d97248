//! `plan-flat` and `plan-hier`: the two planners as library calls on one
//! thread, over the same pool of instances.

use crate::inputs;
use crate::layers::{self, Work};
use crate::run::{repeated_setup, Outcome, Phase, Quality, RunOpts, Stop, Tally, Window};
use crate::spec;
use crate::stats::median;
use crate::trace::{Recorder, SpanId};
use kpbs::hier::{default_blocks, HierConfig};
use kpbs::{Instance, Schedule};
use std::hint::black_box;
use std::time::Instant;

/// Warm-up plans (excluded from the window, counted in `setup_s`).
const WARM_OPS: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planner {
    Flat,
    Hier,
}

impl Planner {
    fn config() -> HierConfig {
        HierConfig::new(default_blocks(inputs::PLAN_N))
    }

    fn plan(self, inst: &Instance) -> Schedule {
        match self {
            Planner::Flat => kpbs::oggp(inst),
            Planner::Hier => kpbs::hier(inst, &Self::config()),
        }
    }

    fn workload(self) -> &'static str {
        match self {
            Planner::Flat => spec::PLAN_FLAT,
            Planner::Hier => spec::PLAN_HIER,
        }
    }
}

struct Env {
    instances: Vec<Instance>,
    lower_bounds: Vec<u64>,
    /// Next op's position in the cycling pool.
    cursor: usize,
    /// The first schedule planned for each instance, validated after the
    /// window; later plans of the same instance must cost the same.
    first: Vec<Option<Schedule>>,
}

fn setup(seed: u64, planner: Planner) -> Env {
    let instances = inputs::plan_instances(seed);
    let mut env = Env {
        lower_bounds: instances.iter().map(kpbs::lower_bound).collect(),
        first: vec![None; instances.len()],
        instances,
        cursor: 0,
    };
    let (warm, _) = op_loop(&mut env, planner, Stop::Ops(WARM_OPS), None);
    assert_eq!(warm.failed(), 0, "warm-up plans failed");
    env
}

fn op_loop(
    env: &mut Env,
    planner: Planner,
    stop: Stop,
    origin: Option<Instant>,
) -> (Phase, Recorder) {
    let wall = Instant::now();
    let recorder = Recorder::new(origin.unwrap_or(wall), origin.is_some());
    let pool = Quality::over_first(inputs::PLAN_POOL as u64);
    let mut t = Tally::new(stop.capacity(50.0), inputs::PLAN_POOL, pool, recorder);
    let phase = &mut t.counts;
    let window = Window::start(stop, 1);
    while window.open(phase.sent) {
        let slot = env.cursor;
        env.cursor = (slot + 1) % env.instances.len();
        let inst = &env.instances[slot];
        let (schedule, elapsed) = t.recorder.time("load.plan", SpanId::NONE, phase.sent, || {
            planner.plan(black_box(inst))
        });
        t.latency.push(elapsed);
        phase.sent += 1;
        // O(1) inline: the cost respects the bound and repeats exactly.
        let cost = schedule.cost();
        let repeats = env.first[slot].as_ref().is_none_or(|f| f.cost() == cost);
        if cost >= env.lower_bounds[slot] && repeats {
            phase.ok += 1;
            t.quality.add(cost, env.lower_bounds[slot]);
        } else {
            phase.wrong += 1;
        }
        env.first[slot].get_or_insert(schedule);
    }
    Phase::merge([t], wall.elapsed())
}

/// After the window: the first schedule of every instance must pass
/// `kpbs::validate`, which includes delivering every edge exactly.
fn verify(env: &Env) -> u64 {
    env.instances
        .iter()
        .zip(&env.first)
        .filter(|(inst, first)| {
            first
                .as_ref()
                .is_some_and(|s| kpbs::validate::validate(inst, s).is_err())
        })
        .count() as u64
}

pub fn run(planner: Planner, opts: RunOpts) -> Outcome {
    let workload = planner.workload();
    let mut out = Outcome::default();
    if !opts.trace {
        let (mut env, setup_s) =
            repeated_setup(opts.setup_reps, || setup(opts.seed, planner), drop);
        let (mut phase, _) = op_loop(&mut env, planner, opts.stop, None);
        phase.wrong += verify(&env);
        out.set_end_to_end(setup_s, &phase);
        return out;
    }

    let mut env = setup(opts.seed, planner);
    let origin = Instant::now();
    let quarter = opts.stop.scaled(0.25);
    let (untraced, _) = op_loop(&mut env, planner, quarter, None);
    // Both halves walk the same stretch of the pool.
    env.cursor = WARM_OPS as usize % env.instances.len();
    let (mut traced, mut recorder) = op_loop(&mut env, planner, quarter, Some(origin));
    traced.wrong += untraced.failed() + verify(&env);
    out.set_load(&traced);
    out.set(
        "telemetry.trace_overhead_ratio",
        untraced.throughput() / traced.throughput().max(1e-9),
    );
    let p50 = traced.latency.median();
    match planner {
        Planner::Flat => {
            layers::replay_flat(&mut recorder, &env.instances, &mut out);
            let get = |n| out.get(n).unwrap_or(0.0);
            layers::print_budget(
                workload,
                p50,
                &[
                    ("kpbs.normalize", get("kpbs.normalize_us")),
                    ("kpbs.regularize", get("kpbs.regularize_us")),
                    ("kpbs.peel", get("kpbs.peel_us")),
                    ("kpbs.extract", get("kpbs.extract_us")),
                ],
            );
        }
        Planner::Hier => {
            replay_hier(&mut recorder, &env.instances, &mut out);
            let plan = out.get("kpbs.hier.plan_us").unwrap_or(0.0);
            layers::print_budget(workload, p50, &[("kpbs.hier.plan", plan)]);
        }
    }
    layers::write_spans(workload, &recorder);
    out
}

/// Replays `hier_report` on each instance with work counters on.
fn replay_hier(recorder: &mut Recorder, instances: &[Instance], out: &mut Outcome) {
    let mut work = Work::default();
    let config = Planner::config();
    let mut reports = Vec::with_capacity(instances.len());
    for (i, inst) in instances.iter().enumerate() {
        let (report, _) = recorder.time("kpbs.hier.plan", SpanId::NONE, i as u64, || {
            work.count(|| kpbs::hier_report(black_box(inst), &config))
        });
        reports.push(report);
    }
    let mean = |f: &dyn Fn(&kpbs::HierReport) -> f64| {
        reports.iter().map(f).sum::<f64>() / reports.len().max(1) as f64
    };
    out.set(
        "kpbs.hier.plan_us",
        median(&recorder.durations_us("kpbs.hier.plan")),
    );
    out.set(
        "kpbs.hier.diagonal_fraction",
        mean(&|r| r.diagonal_fraction),
    );
    out.set("kpbs.hier.active_pairs", mean(&|r| r.active_pairs as f64));
    out.set("kpbs.hier.macro_steps", mean(&|r| r.macro_steps as f64));
    out.set(
        "kpbs.steps_per_plan",
        mean(&|r| r.schedule.num_steps() as f64),
    );
    work.report(out);
}
