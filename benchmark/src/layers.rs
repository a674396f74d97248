//! The traced run's per-layer measurements, all taken from outside the
//! product: replays of single layer calls through their public functions
//! (timed into the benchmark's own span recorder, work counted through
//! `telemetry::counters` snapshots on this one thread) and scrapes of the
//! server's public `stats()` / `metrics_text()`.

use crate::inputs::{self, Stream, BETA_SECONDS, SCALE};
use crate::run::Outcome;
use crate::stats::median;
use crate::trace::{Recorder, SpanId};
use kpbs::wrgp::{peel_all_incremental, IncrementalMaxMin};
use kpbs::{Instance, Schedule};
use rand::Rng;
use redistd::cache::ShardedLru;
use redistd::server::{ServerHandle, ServerStats};
use redistd::wire::{self, PlanRequest, PlanResponse, SessionRequest};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use telemetry::counters::{self, Counter, Snapshot, COUNTER_COUNT};
use telemetry::metrics::find_sample;

/// Requests (or delta rounds) a serving replay walks through.
pub const REPLAY_ITEMS: usize = 64;

fn median_of(recorder: &Recorder, name: &str) -> f64 {
    median(&recorder.durations_us(name))
}

/// Writes the run's spans next to the benchmark executable (inside the
/// build directory, which `.gitignore` names).
pub fn write_spans(workload: &str, recorder: &Recorder) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
    else {
        return;
    };
    let path = dir.join(format!("benchmark-spans-{workload}.json"));
    match std::fs::File::create(&path).and_then(|f| recorder.write_json(std::io::BufWriter::new(f)))
    {
        Ok(()) => println!("{} spans written to {}", recorder.len(), path.display()),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
}

/// Prints one budget line: the parts, their sum, and the client-observed
/// median they should add up to.
pub fn print_budget(workload: &str, latency_p50_us: f64, parts: &[(&str, f64)]) {
    let sum: f64 = parts.iter().map(|p| p.1).sum();
    let listed: Vec<String> = parts.iter().map(|(n, v)| format!("{n}={v:.1}")).collect();
    println!(
        "budget {workload}: {} => sum={sum:.1}us vs latency_p50_us={latency_p50_us:.1} ({:.0}%)",
        listed.join(" + "),
        100.0 * sum / latency_p50_us.max(1e-9)
    );
}

/// Work-counter totals over a set of replayed plans, reported per plan.
/// The counts are exact: same inputs, same counts, on every run.
#[derive(Debug, Default)]
pub struct Work {
    total: Snapshot,
    plans: u64,
}

impl Work {
    /// Runs `f` with the work counters on and adds this thread's delta.
    pub fn count<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let was_enabled = counters::enabled();
        counters::enable();
        let before = counters::local_snapshot();
        let out = f();
        self.total.merge(&counters::local_snapshot().delta(&before));
        self.plans += 1;
        if !was_enabled {
            counters::disable();
        }
        out
    }

    pub fn per_plan(&self, c: Counter) -> f64 {
        self.total.get(c) as f64 / self.plans.max(1) as f64
    }

    pub fn total(&self, c: Counter) -> u64 {
        self.total.get(c)
    }

    /// The `bipartite.*` engine counts and the pipeline's own counts.
    pub fn report(&self, out: &mut Outcome) {
        self.report_engine(out);
        out.set("kpbs.peels_per_plan", self.per_plan(Counter::Peels));
        out.set(
            "kpbs.regularize_filler_edges",
            self.per_plan(Counter::RegularizeFillerEdges),
        );
        out.set(
            "kpbs.regularize_pad_edges",
            self.per_plan(Counter::RegularizePadEdges),
        );
    }

    /// The `bipartite.*` engine counts per counted call.
    pub fn report_engine(&self, out: &mut Outcome) {
        out.set("bipartite.hk_phases", self.per_plan(Counter::HkPhases));
        out.set(
            "bipartite.kuhn_attempts",
            self.per_plan(Counter::KuhnAttempts),
        );
        out.set(
            "bipartite.dfs_edge_visits",
            self.per_plan(Counter::DfsEdgeVisits),
        );
        out.set(
            "bipartite.threshold_probes",
            self.per_plan(Counter::ThresholdProbes),
        );
        out.set(
            "bipartite.merge_passes",
            self.per_plan(Counter::MergePasses),
        );
        out.set(
            "bipartite.adj_rebuilds",
            self.per_plan(Counter::AdjRebuilds),
        );
        out.set(
            "bipartite.dfs_visits_per_peel",
            self.total(Counter::DfsEdgeVisits) as f64 / self.total(Counter::Peels).max(1) as f64,
        );
    }
}

/// Mean share of the `k` transfer slots the schedules' steps fill.
fn k_utilisation<'a>(plans: impl Iterator<Item = (&'a Instance, &'a Schedule)>) -> f64 {
    let (mut used, mut slots) = (0usize, 0usize);
    for (inst, schedule) in plans {
        used += schedule.steps.iter().map(|s| s.width()).sum::<usize>();
        slots += schedule.num_steps() * inst.effective_k();
    }
    used as f64 / slots.max(1) as f64
}

/// Replays flat OGGP on each instance: the three pipeline stages on their
/// own, then the whole plan (with work counters), its lower bound and its
/// validation. `kpbs.extract_us` is the plan minus the three stages.
/// Returns the schedules.
pub fn replay_flat(
    recorder: &mut Recorder,
    instances: &[Instance],
    out: &mut Outcome,
) -> Vec<Schedule> {
    let mut work = Work::default();
    let mut schedules = Vec::with_capacity(instances.len());
    for (i, inst) in instances.iter().enumerate() {
        let op = i as u64;
        let parent = recorder.open("replay.plan", op);
        let (norm, _) = recorder.time("kpbs.normalize", parent, op, || {
            kpbs::normalize::normalize(black_box(inst))
        });
        let (reg, _) = recorder.time("kpbs.regularize", parent, op, || {
            kpbs::regularize::regularize(&norm.graph, inst.effective_k())
        });
        let mut graph = reg.graph;
        let (peels, _) = recorder.time("kpbs.peel", parent, op, || {
            peel_all_incremental(&mut graph, &mut IncrementalMaxMin::new())
        });
        black_box(peels);
        let (schedule, _) = recorder.time("kpbs.plan", parent, op, || {
            work.count(|| kpbs::oggp(black_box(inst)))
        });
        recorder.time("kpbs.lower_bound", parent, op, || {
            black_box(kpbs::lower_bound(inst))
        });
        let (valid, _) = recorder.time("kpbs.validate", parent, op, || {
            kpbs::validate::validate(inst, &schedule)
        });
        assert!(valid.is_ok(), "replayed plan does not validate");
        recorder.close(parent);
        schedules.push(schedule);
    }
    let stages = ["kpbs.normalize", "kpbs.regularize", "kpbs.peel"];
    let stage_sum: f64 = stages.iter().map(|s| median_of(recorder, s)).sum();
    let plan = median_of(recorder, "kpbs.plan");
    out.set("kpbs.normalize_us", median_of(recorder, "kpbs.normalize"));
    out.set("kpbs.regularize_us", median_of(recorder, "kpbs.regularize"));
    out.set("kpbs.peel_us", median_of(recorder, "kpbs.peel"));
    out.set("kpbs.extract_us", (plan - stage_sum).max(0.0));
    out.set("kpbs.plan_us", plan);
    out.set(
        "kpbs.lower_bound_us",
        median_of(recorder, "kpbs.lower_bound"),
    );
    out.set("kpbs.validate_us", median_of(recorder, "kpbs.validate"));
    out.set(
        "kpbs.steps_per_plan",
        schedules.iter().map(|s| s.num_steps()).sum::<usize>() as f64
            / schedules.len().max(1) as f64,
    );
    out.set(
        "kpbs.k_utilisation",
        k_utilisation(instances.iter().zip(&schedules)),
    );
    work.report(out);
    schedules
}

/// Replays what one plan request costs on either side of the socket:
/// wire encode/decode, matrix to instance, cache key, and the planner
/// pipeline.
pub fn replay_serving(recorder: &mut Recorder, requests: &[&PlanRequest], out: &mut Outcome) {
    let platform = inputs::serve_platform(inputs::SERVE_N);
    let mut instances = Vec::with_capacity(requests.len());
    let mut request_bytes = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        let op = i as u64;
        let parent = recorder.open("replay.request", op);
        let (frame, _) = recorder.time("redistd.wire.encode_request", parent, op, || {
            wire::encode_request(black_box(request))
        });
        let (decoded, _) = recorder.time("redistd.wire.decode_request", parent, op, || {
            wire::decode_frame(&frame[4..])
        });
        assert!(decoded.is_ok(), "replayed request frame does not decode");
        // What the worker does before it can probe the cache.
        let (inst, _) = recorder.time("kpbs.traffic.to_instance", parent, op, || {
            request
                .matrix
                .to_traffic()
                .to_instance(&platform, BETA_SECONDS, SCALE)
                .0
        });
        recorder.time("kpbs.fingerprint.cache_key", parent, op, || {
            black_box(kpbs::cache_key(&inst, request.algo as u64))
        });
        recorder.close(parent);
        request_bytes.push(frame.len() as f64);
        instances.push(inst);
    }
    let schedules = replay_flat(recorder, &instances, out);
    let mut response_bytes = Vec::new();
    for (i, (inst, schedule)) in instances.iter().zip(schedules).enumerate() {
        let response = PlanResponse::Ok {
            request_id: i as u64,
            cached: false,
            cost: schedule.cost(),
            lower_bound: kpbs::lower_bound(inst),
            schedule,
            work: [0; COUNTER_COUNT],
            server_id: 1,
        };
        response_bytes.push(replay_response(recorder, i as u64, &response));
    }
    report_wire(recorder, &(request_bytes, response_bytes), out);
    out.set(
        "kpbs.traffic.to_instance_us",
        median_of(recorder, "kpbs.traffic.to_instance"),
    );
    out.set(
        "kpbs.fingerprint.cache_key_us",
        median_of(recorder, "kpbs.fingerprint.cache_key"),
    );
}

/// The replayed wire calls' spans and the metrics their medians report as.
const WIRE_SPANS: [(&str, &str); 4] = [
    (
        "redistd.wire.encode_request",
        "redistd.wire.encode_request_us",
    ),
    (
        "redistd.wire.decode_request",
        "redistd.wire.decode_request_us",
    ),
    (
        "redistd.wire.encode_response",
        "redistd.wire.encode_response_us",
    ),
    (
        "redistd.wire.decode_response",
        "redistd.wire.decode_response_us",
    ),
];

/// Reports the four wire timings and the two frame sizes of a replay.
pub fn report_wire(recorder: &Recorder, sizes: &(Vec<f64>, Vec<f64>), out: &mut Outcome) {
    for (span, metric) in WIRE_SPANS {
        out.set(metric, median_of(recorder, span));
    }
    out.set("redistd.wire.request_bytes", median(&sizes.0));
    out.set("redistd.wire.response_bytes", median(&sizes.1));
}

/// Encodes and decodes one response frame; returns its size in bytes.
fn replay_response(recorder: &mut Recorder, op: u64, response: &PlanResponse) -> f64 {
    let (frame, _) = recorder.time("redistd.wire.encode_response", SpanId::NONE, op, || {
        wire::encode_response(black_box(response), wire::VERSION)
    });
    let (decoded, _) = recorder.time("redistd.wire.decode_response", SpanId::NONE, op, || {
        wire::decode_response(&frame[4..])
    });
    assert!(decoded.is_ok(), "replayed response frame does not decode");
    frame.len() as f64
}

/// Replays the wire side of one session `DELTA` round.
pub fn replay_session_wire(
    recorder: &mut Recorder,
    op: u64,
    request: &SessionRequest,
    response: &PlanResponse,
    sizes: &mut (Vec<f64>, Vec<f64>),
) {
    let (frame, _) = recorder.time("redistd.wire.encode_request", SpanId::NONE, op, || {
        wire::encode_session_request(black_box(request))
    });
    let (decoded, _) = recorder.time("redistd.wire.decode_request", SpanId::NONE, op, || {
        wire::decode_frame(&frame[4..])
    });
    assert!(decoded.is_ok(), "replayed session frame does not decode");
    sizes.0.push(frame.len() as f64);
    sizes.1.push(replay_response(recorder, op, response));
}

/// Times the plan cache's three operations against a local
/// `ShardedLru::new(1024, 8)` — the server's pinned shape. Each figure is
/// the median over batches of 256 calls, since one call is shorter than a
/// clock read.
pub fn replay_cache(seed: u64, out: &mut Outcome) {
    const BATCH: usize = 256;
    let config = crate::spec::server_config();
    let cache: ShardedLru<u64> = ShardedLru::new(config.cache_capacity, config.cache_shards);
    let mut rng = inputs::rng(seed, Stream::CacheKeys, 0);
    let mut key =
        move || (rng.gen_range(0..u64::MAX) as u128) << 64 | rng.gen_range(0..u64::MAX) as u128;
    let per_call_ns = |batches: &[f64]| median(batches);

    // Inserts: four times the capacity, so most batches evict.
    let keys: Vec<u128> = (0..4 * config.cache_capacity).map(|_| key()).collect();
    let value = Arc::new(0u64);
    let insert: Vec<f64> = keys
        .chunks(BATCH)
        .map(|chunk| {
            let start = Instant::now();
            for &k in chunk {
                cache.insert(k, value.clone());
            }
            start.elapsed().as_nanos() as f64 / chunk.len() as f64
        })
        .collect();
    // Hits: the most recently inserted keys are resident.
    let resident = &keys[keys.len() - BATCH..];
    let hit: Vec<f64> = (0..16)
        .map(|_| {
            let start = Instant::now();
            let found = resident.iter().filter(|&&k| cache.get(k).is_some()).count();
            let ns = start.elapsed().as_nanos() as f64 / BATCH as f64;
            assert_eq!(found, BATCH, "recent keys must be resident");
            ns
        })
        .collect();
    let miss: Vec<f64> = (0..16)
        .map(|_| {
            let absent: Vec<u128> = (0..BATCH).map(|_| key()).collect();
            let start = Instant::now();
            let found = absent.iter().filter(|&&k| cache.get(k).is_some()).count();
            let ns = start.elapsed().as_nanos() as f64 / BATCH as f64;
            assert_eq!(found, 0, "fresh keys must miss");
            ns
        })
        .collect();
    out.set("redistd.cache.insert_ns", per_call_ns(&insert));
    out.set("redistd.cache.get_hit_ns", per_call_ns(&hit));
    out.set("redistd.cache.get_miss_ns", per_call_ns(&miss));
}

/// Scrapes the server: queue wait, service and plan time, shedding and
/// backpressure, and — as deltas since `before` — the cache's and the
/// session table's counts.
pub fn server(handle: &ServerHandle, before: &ServerStats, out: &mut Outcome) {
    let now = handle.stats();
    let text = handle.metrics_text();
    let sample =
        |name: &str, labels: &[(&str, &str)]| find_sample(&text, name, labels).unwrap_or(0.0);
    out.set(
        "redistd.server.queue_wait_p50_us",
        now.queue_wait_p50_us as f64,
    );
    out.set(
        "redistd.server.queue_wait_p99_us",
        now.queue_wait_p99_us as f64,
    );
    out.set("redistd.server.service_p50_us", now.p50_us as f64);
    out.set("redistd.server.service_p99_us", now.p99_us as f64);
    out.set(
        "redistd.server.plan_p50_us",
        sample("redistd_plan_us", &[("quantile", "0.5")]),
    );
    out.set(
        "redistd.server.shed_total",
        (now.rejected_queue_full + now.rejected_too_large) as f64,
    );
    out.set(
        "redistd.server.io_backpressure_total",
        sample("redistd_io_backpressure_total", &[]),
    );
    let (hits, misses) = (
        now.cache.hits - before.cache.hits,
        now.cache.misses - before.cache.misses,
    );
    out.set(
        "redistd.cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set(
        "redistd.cache.insertions",
        (now.cache.insertions - before.cache.insertions) as f64,
    );
    out.set(
        "redistd.cache.evictions",
        (now.cache.evictions - before.cache.evictions) as f64,
    );
    let repairs = now.session_repairs - before.session_repairs;
    let repeels = now.session_repeels - before.session_repeels;
    let colds = now.session_colds - before.session_colds;
    let deltas = (repairs + repeels + colds).max(1) as f64;
    out.set("redistd.session.repair_share", repairs as f64 / deltas);
    out.set("redistd.session.repeel_share", repeels as f64 / deltas);
    out.set("redistd.session.cold_share", colds as f64 / deltas);
    out.set(
        "redistd.session.commits",
        (now.sessions_committed - before.sessions_committed) as f64,
    );
}

/// Sets `redistd.server.residual_us` — client median minus server service
/// median minus the replayed wire time outside the service interval:
/// sockets, epoll and thread hand-offs — and prints the budget line:
/// replayed stage medians + server queue wait + residual against the
/// client's median. `server_stages` are the replayed calls the worker makes
/// between pickup and response-ready.
pub fn serving_budget(
    workload: &str,
    latency_p50_us: f64,
    server_stages: &[(&str, f64)],
    out: &mut Outcome,
) {
    let get = |out: &Outcome, name: &str| out.get(name).unwrap_or(0.0);
    // Service runs from before the frame is decoded until the response
    // exists; encoding it, and the client's two calls, lie outside.
    let outside = get(out, "redistd.wire.encode_request_us")
        + get(out, "redistd.wire.encode_response_us")
        + get(out, "redistd.wire.decode_response_us");
    let residual = latency_p50_us - get(out, "redistd.server.service_p50_us") - outside;
    out.set("redistd.server.residual_us", residual);
    let mut parts = vec![
        (
            "wire.encode_request",
            get(out, "redistd.wire.encode_request_us"),
        ),
        (
            "wire.decode_request",
            get(out, "redistd.wire.decode_request_us"),
        ),
        (
            "server.queue_wait",
            get(out, "redistd.server.queue_wait_p50_us"),
        ),
    ];
    parts.extend_from_slice(server_stages);
    parts.extend([
        (
            "wire.encode_response",
            get(out, "redistd.wire.encode_response_us"),
        ),
        (
            "wire.decode_response",
            get(out, "redistd.wire.decode_response_us"),
        ),
        ("server.residual", residual),
    ]);
    print_budget(workload, latency_p50_us, &parts);
}

/// The worker-side stages of a plan request, by what the cache did.
pub fn plan_request_stages(out: &Outcome) -> Vec<(&'static str, f64)> {
    let get = |name: &str| out.get(name).unwrap_or(0.0);
    let mut stages = vec![
        ("kpbs.to_instance", get("kpbs.traffic.to_instance_us")),
        ("kpbs.cache_key", get("kpbs.fingerprint.cache_key_us")),
    ];
    if get("redistd.cache.hit_rate") >= 0.5 {
        stages.push(("cache.get_hit", get("redistd.cache.get_hit_ns") / 1e3));
    } else {
        stages.extend([
            ("cache.get_miss", get("redistd.cache.get_miss_ns") / 1e3),
            ("kpbs.plan", get("kpbs.plan_us")),
            ("kpbs.lower_bound", get("kpbs.lower_bound_us")),
            ("cache.insert", get("redistd.cache.insert_ns") / 1e3),
        ]);
    }
    stages
}
