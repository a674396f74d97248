//! `serve-hot` and `serve-miss`: plan requests against an in-process
//! `redistd` over loopback TCP — closed loop for the end-to-end metrics, and
//! in the traced run also open loop at a pinned rate.

use crate::inputs::{self, BETA_SECONDS, SCALE, SERVE_N};
use crate::layers;
use crate::run::{
    on_threads, repeated_setup, trace_overhead_ratio, Outcome, Phase, Quality, RunOpts, Stop,
    Tally, Window,
};
use crate::spec;
use crate::stats::Samples;
use crate::trace::{Recorder, SpanId};
use redistd::client::Client;
use redistd::server::{self, ServerHandle};
use redistd::wire::{self, PlanRequest, PlanResponse};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const CONNECT_ATTEMPTS: u32 = 8;
/// Every 16th response, plus the first of each distinct matrix, is kept
/// for full verification after the window — up to this many per
/// connection.
const RETAIN_EVERY: u64 = 16;
const RETAIN_CAP: usize = 256;

/// What distinguishes the two serving workloads.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Generator threads, one blocking connection each.
    pub connections: usize,
    /// Distinct matrices in the pool; each connection cycles its own
    /// disjoint share.
    pub distinct: u64,
    /// Warm-up requests per connection (excluded from the window, counted
    /// in `setup_s`); at least one pass over a hot pool so it is cached.
    pub warm: u64,
    /// Total req/s of the traced run's open-loop slice.
    pub open_rate: f64,
    /// Requests per slice of a connection's op sequence (about 0.4 s).
    pub slice_ops: usize,
}

pub fn shape(workload: &str) -> Shape {
    match workload {
        // Eight closed-loop connections keep the two workers and two I/O
        // threads of the 2-core box busy, so the run measures what a hit
        // costs the server. With two, a request is four thread wake-ups
        // and little else, and one-second slices of one run ranged from
        // 8 000 to 21 000 req/s with the scheduler's placement.
        spec::SERVE_HOT => Shape {
            connections: 8,
            distinct: 16,
            warm: 500,
            open_rate: spec::OPEN_RATE_HOT,
            slice_ops: 1000,
        },
        // One connection per worker: the planner is on every request's
        // critical path and queue wait stays small beside it.
        spec::SERVE_MISS => Shape {
            connections: 2,
            distinct: 4096,
            warm: 110,
            open_rate: spec::OPEN_RATE_MISS,
            slice_ops: 256,
        },
        other => panic!("not a serving workload: {other}"),
    }
}

/// One generator thread's connection and its share of the pool.
struct Conn {
    client: Client,
    requests: Vec<PlanRequest>,
    cursor: usize,
    next_id: u64,
}

impl Conn {
    /// One cycle is one pass over the connection's share of the pool.
    fn quality(&self) -> Quality {
        Quality::over_first(self.requests.len() as u64)
    }

    /// Sends the connection's next request and waits for its response.
    /// Latency runs from `due` when the send was scheduled (open loop),
    /// else from the send itself. Verification beyond the O(1) checks is
    /// deferred: the response is only moved into `retained`.
    fn send_next(&mut self, c: usize, t: &mut Tally, kept: &mut Kept, due: Option<Instant>) {
        let slot = self.cursor;
        self.cursor = (slot + 1) % self.requests.len();
        let id = self.next_id;
        self.next_id += 1;
        self.requests[slot].request_id = id;
        let request = &self.requests[slot];
        let client = &mut self.client;
        if let Some(due) = due {
            t.lag.push(Instant::now().saturating_duration_since(due));
        }
        let (response, elapsed) = t
            .recorder
            .time("load.request", SpanId::NONE, id, || client.plan(request));
        t.latency.push(due.map_or(elapsed, |d| d.elapsed()));
        let keep = (!kept.seen[slot] || t.counts.sent.is_multiple_of(RETAIN_EVERY))
            && kept.retained.len() < RETAIN_CAP;
        kept.seen[slot] = true;
        if check(t, id, &response) && keep {
            kept.retained.push(Retained {
                conn: c,
                slot,
                response: response.expect("checked Ok"),
            });
        }
    }
}

struct Env {
    handle: ServerHandle,
    conns: Vec<Conn>,
}

/// A response kept for verification after the window: which connection's
/// request slot it answered.
struct Retained {
    conn: usize,
    slot: usize,
    response: PlanResponse,
}

/// The O(1) inline checks of one response: echoed id, `Ok` status,
/// `cost >= lower bound`, a non-zero server id. Counts it either way.
fn check(t: &mut Tally, id: u64, response: &std::io::Result<PlanResponse>) -> bool {
    let counts = &mut t.counts;
    counts.sent += 1;
    match response {
        Ok(PlanResponse::Ok {
            request_id,
            cost,
            lower_bound,
            server_id,
            ..
        }) => {
            if *request_id != id || cost < lower_bound || *server_id == 0 {
                counts.wrong += 1;
                return false;
            }
            counts.ok += 1;
            t.quality.add(*cost, *lower_bound);
            true
        }
        Ok(PlanResponse::Rejected { .. }) => {
            counts.rejected += 1;
            false
        }
        _ => {
            counts.errors += 1;
            false
        }
    }
}

fn setup(seed: u64, shape: Shape) -> Env {
    let handle = server::start(spec::server_config()).expect("start in-process redistd");
    let share = shape.distinct / shape.connections as u64;
    let mut conns: Vec<Conn> = (0..shape.connections as u64)
        .map(|c| Conn {
            client: Client::connect_with_retry(handle.addr(), CONNECT_ATTEMPTS)
                .expect("connect to in-process redistd"),
            requests: (c * share..(c + 1) * share)
                .map(|i| inputs::serve_request(seed, i))
                .collect(),
            cursor: 0,
            next_id: c << 32,
        })
        .collect();
    // Warm-up: fills a hot pool into the cache and lets lazy set-up finish.
    let warm = closed_loop(
        &mut conns,
        Stop::Ops(shape.warm * shape.connections as u64),
        shape.slice_ops,
        None,
    );
    assert_eq!(warm.0.failed(), 0, "warm-up requests failed");
    Env { handle, conns }
}

fn teardown(env: Env) {
    drop(env.conns);
    env.handle.shutdown();
}

/// What a generator thread keeps besides its tally.
struct Kept {
    /// Which of the connection's request slots were sent in this phase.
    seen: Vec<bool>,
    retained: Vec<Retained>,
}

impl Kept {
    fn new(conn: &Conn) -> Kept {
        Kept {
            seen: vec![false; conn.requests.len()],
            retained: Vec::new(),
        }
    }
}

/// Closed loop: each connection sends its next request the moment the
/// previous response lands. `origin` enables span recording.
fn closed_loop(
    conns: &mut [Conn],
    stop: Stop,
    slice_ops: usize,
    origin: Option<Instant>,
) -> (Phase, Vec<Retained>, Recorder) {
    let capacity = stop.capacity(8_000.0);
    let threads = conns.len() as u64;
    let wall = Instant::now();
    let done = on_threads(conns, |c, conn| {
        let recorder = Recorder::new(origin.unwrap_or(wall), origin.is_some());
        let mut t = Tally::new(capacity, slice_ops, conn.quality(), recorder);
        let mut kept = Kept::new(conn);
        let window = Window::start(stop, threads);
        while window.open(t.counts.sent) {
            conn.send_next(c, &mut t, &mut kept, None);
        }
        (t, kept.retained)
    });
    merge(done, wall.elapsed())
}

/// Open loop (traced run only): every send is scheduled up front at
/// `base + i / rate` and timed from that due time, so a stall charges the
/// requests queued behind it; `lag` records how late the generator itself
/// sent.
fn open_loop(
    conns: &mut [Conn],
    stop: Stop,
    rate: f64,
    origin: Option<Instant>,
) -> (Phase, Vec<Retained>, Recorder) {
    let threads = conns.len();
    let total = match stop {
        Stop::Seconds(s) => (s * rate) as u64,
        Stop::Ops(n) => n,
    }
    .max(threads as u64);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let wall = Instant::now();
    let base = wall + Duration::from_millis(5);
    let done = on_threads(conns, |c, conn| {
        let dues: Vec<Instant> = (c as u64..total)
            .step_by(threads)
            .map(|i| base + interval.mul_f64(i as f64))
            .collect();
        let recorder = Recorder::new(origin.unwrap_or(wall), origin.is_some());
        let mut t = Tally::new(dues.len(), usize::MAX, conn.quality(), recorder);
        t.lag = Samples::with_capacity(dues.len(), usize::MAX);
        let mut kept = Kept::new(conn);
        for due in dues {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            conn.send_next(c, &mut t, &mut kept, Some(due));
        }
        (t, kept.retained)
    });
    merge(done, base.elapsed())
}

fn merge(done: Vec<(Tally, Vec<Retained>)>, elapsed: Duration) -> (Phase, Vec<Retained>, Recorder) {
    let (tallies, retained): (Vec<Tally>, Vec<Vec<Retained>>) = done.into_iter().unzip();
    let (phase, recorder) = Phase::merge(tallies, elapsed);
    (phase, retained.into_iter().flatten().collect(), recorder)
}

/// Full verification, off the timed path: every retained response must pass
/// `kpbs::validate` against the instance of its own matrix (which is exact
/// delivery of that matrix) and byte-compare, with its cost and bound,
/// against a local cold `kpbs::oggp`. Returns the number that did not.
fn verify(env: &Env, retained: &[Retained]) -> u64 {
    let platform = inputs::serve_platform(SERVE_N);
    let mut cold: HashMap<(usize, usize), (Vec<u8>, u64, u64)> = HashMap::new();
    let mut wrong = 0;
    for r in retained {
        let PlanResponse::Ok {
            schedule,
            cost,
            lower_bound,
            ..
        } = &r.response
        else {
            wrong += 1;
            continue;
        };
        let traffic = env.conns[r.conn].requests[r.slot].matrix.to_traffic();
        let (inst, _) = traffic.to_instance(&platform, BETA_SECONDS, SCALE);
        let reference = cold.entry((r.conn, r.slot)).or_insert_with(|| {
            let plan = kpbs::oggp(&inst);
            (
                wire::encode_schedule(&plan),
                plan.cost(),
                kpbs::lower_bound(&inst),
            )
        });
        let good = kpbs::validate::validate(&inst, schedule).is_ok()
            && wire::encode_schedule(schedule) == reference.0
            && *cost == reference.1
            && *lower_bound == reference.2;
        if !good {
            eprintln!(
                "benchmark: response for matrix ({}, {}) fails verification",
                r.conn, r.slot
            );
            wrong += 1;
        }
    }
    wrong
}

pub fn run(workload: &str, opts: RunOpts) -> Outcome {
    // As the `redistd` binary configures telemetry: counters on, spans off.
    telemetry::counters::enable();
    let shape = shape(workload);
    let mut out = Outcome::default();
    println!("{}", spec::server_config_line());
    println!(
        "load: {} blocking connections, closed loop; traced open-loop slice at a pinned {} req/s",
        shape.connections, shape.open_rate
    );
    if !opts.trace {
        let (mut env, setup_s) =
            repeated_setup(opts.setup_reps, || setup(opts.seed, shape), teardown);
        let (mut phase, retained, _) =
            closed_loop(&mut env.conns, opts.stop, shape.slice_ops, None);
        phase.wrong += verify(&env, &retained);
        println!("{workload}: {} responses verified in full", retained.len());
        teardown(env);
        out.set_end_to_end(setup_s, &phase);
        return out;
    }

    let mut env = setup(opts.seed, shape);
    let origin = Instant::now();
    let eighth = opts.stop.scaled(0.125);
    let quarter = opts.stop.scaled(0.25);
    let (untraced, _, _) = closed_loop(&mut env.conns, eighth, shape.slice_ops, None);
    let before = env.handle.stats();
    let (mut traced, retained, mut recorder) =
        closed_loop(&mut env.conns, quarter, shape.slice_ops, Some(origin));
    layers::server(&env.handle, &before, &mut out);
    let (untraced_after, _, _) = closed_loop(&mut env.conns, eighth, shape.slice_ops, None);
    let (open, open_retained, _) = open_loop(&mut env.conns, quarter, shape.open_rate, None);
    println!("{workload} open loop: {}", open.latency.describe());
    traced.wrong += verify(&env, &retained)
        + verify(&env, &open_retained)
        + untraced.failed()
        + untraced_after.failed()
        + open.failed();
    out.set_load(&traced);
    out.set("load.open_latency_p50_us", open.latency.median());
    out.set("load.open_latency_p90_us", open.latency.percentile(0.9));
    out.set("load.open_latency_p99_us", open.latency.percentile(0.99));
    out.set("load.generator_lag_p99_us", open.lag.percentile(0.99));
    out.set(
        "telemetry.trace_overhead_ratio",
        trace_overhead_ratio(&untraced, &traced, &untraced_after),
    );
    // A sample spread over the whole pool.
    let pool: Vec<&PlanRequest> = env.conns.iter().flat_map(|c| &c.requests).collect();
    let stride = (pool.len() / layers::REPLAY_ITEMS).max(1);
    let replayed: Vec<&PlanRequest> = pool
        .into_iter()
        .step_by(stride)
        .cycle()
        .take(layers::REPLAY_ITEMS)
        .collect();
    layers::replay_serving(&mut recorder, &replayed, &mut out);
    layers::replay_cache(opts.seed, &mut out);
    let stages = layers::plan_request_stages(&out);
    layers::serving_budget(workload, traced.latency.median(), &stages, &mut out);
    layers::write_spans(workload, &recorder);
    teardown(env);
    out
}
