//! End-to-end telemetry tests over the real scheduler: golden (byte-stable)
//! traces, structural validity of the Chrome trace JSON, deterministic work
//! counters, and the disabled path costing (and recording) nothing.
//!
//! Telemetry state is process-global, so every test that toggles it holds
//! `LOCK` and leaves both subsystems disabled on exit.

use bipartite::generate::complete_graph;
use kpbs::{ggp, oggp, Instance};
use rand::{rngs::SmallRng, SeedableRng};
use std::sync::Mutex;
use telemetry::counters;
use telemetry::export::chrome_trace;
use telemetry::json;
use telemetry::spans::{self, ClockMode, SpanEvent};

static LOCK: Mutex<()> = Mutex::new(());

fn fixed_instance(seed: u64, n: usize) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = complete_graph(&mut rng, n, n, (1, 300));
    Instance::new(g, n / 2, 1)
}

/// Runs `oggp` on a fixed-seed instance with span recording on a logical
/// clock and returns this thread's events.
fn traced_oggp_events(inst: &Instance) -> Vec<SpanEvent> {
    spans::set_clock(ClockMode::Logical);
    spans::reset();
    spans::enable();
    std::hint::black_box(oggp(inst));
    spans::disable();
    let events = spans::drain_thread();
    spans::set_clock(ClockMode::Wall);
    events
}

#[test]
fn golden_trace_is_byte_identical_across_runs() {
    let _guard = LOCK.lock().unwrap();
    let inst = fixed_instance(0x901d, 10);
    let first = chrome_trace(&traced_oggp_events(&inst));
    let second = chrome_trace(&traced_oggp_events(&inst));
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "fixed-seed OGGP trace must be byte-identical across runs"
    );
    // The trace covers the scheduler pipeline, not just the outer call.
    for name in ["kpbs.oggp", "kpbs.regularize", "kpbs.peel", "kpbs.extract"] {
        assert!(first.contains(name), "trace missing span {name}");
    }
}

#[test]
fn trace_json_parses_and_phases_balance() {
    let _guard = LOCK.lock().unwrap();
    let inst = fixed_instance(0x5712, 12);
    let events = traced_oggp_events(&inst);
    assert!(!events.is_empty());
    let text = chrome_trace(&events);

    let v = json::parse(&text).expect("chrome trace must be valid JSON");
    let list = v
        .get("traceEvents")
        .and_then(|t| t.as_arr())
        .expect("traceEvents array");
    assert_eq!(list.len(), events.len());

    // Per (tid, name): every B has a matching E and stacks never go negative.
    let mut depth: std::collections::BTreeMap<(u64, String), i64> = Default::default();
    for e in list {
        let obj = e.as_obj().expect("event object");
        let name = obj["name"].as_str().unwrap().to_string();
        let ph = obj["ph"].as_str().unwrap();
        let tid = obj["tid"].as_f64().unwrap() as u64;
        assert!(obj["ts"].as_f64().unwrap() >= 0.0);
        match ph {
            "B" => *depth.entry((tid, name)).or_insert(0) += 1,
            "E" => {
                let d = depth.entry((tid, name.clone())).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "span {name} ended before it began");
            }
            "i" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    for ((tid, name), d) in depth {
        assert_eq!(d, 0, "span {name} on tid {tid} left {d} unmatched begins");
    }
}

#[test]
fn work_counters_are_deterministic_across_runs() {
    let _guard = LOCK.lock().unwrap();
    let inst = fixed_instance(0xdead, 12);
    let mut snapshots = Vec::new();
    for _ in 0..2 {
        counters::enable();
        let before = counters::local_snapshot();
        std::hint::black_box(oggp(&inst));
        std::hint::black_box(ggp(&inst));
        snapshots.push(counters::local_snapshot().delta(&before));
        counters::disable();
    }
    assert_eq!(
        snapshots[0], snapshots[1],
        "fixed-seed work counters must be identical across runs"
    );
    // The pipeline exercised both matching engines and the peeling loop.
    use telemetry::Counter;
    let s = &snapshots[0];
    assert!(s.get(Counter::HkPhases) > 0, "OGGP must run HK phases");
    assert!(
        s.get(Counter::KuhnAttempts) > 0,
        "GGP must run Kuhn attempts"
    );
    assert!(s.get(Counter::DfsEdgeVisits) > 0);
    assert!(s.get(Counter::Peels) > 0);
    assert!(s.get(Counter::MergePasses) > 0);
}

/// A cold first peel starts one tree per left of the regularised graph and
/// resumes at most one per inserted edge (a wake-up needs an augmentation,
/// and those are bounded by the side too): linear in `side + m`, where an
/// augment-and-rescan sweep pays a pass over the free lefts per
/// augmentation — quadratic in the side.
#[test]
fn cold_first_peel_is_linear_in_kuhn_attempts() {
    use bipartite::MatchingEngine;
    use telemetry::Counter;
    let _guard = LOCK.lock().unwrap();
    let mut rng = SmallRng::seed_from_u64(0xc01d);
    let inst = kpbs::instances::sparse_clustered(&mut rng, 128, 8, 8, 0.1, 10_000, 16, 1);
    let g = kpbs::regularize::regularize(&inst.graph, inst.effective_k()).graph;
    let (side, m) = (g.left_count() as u64, g.edge_count() as u64);
    assert!(side >= 128);
    let mut engine = MatchingEngine::for_graph(&g);
    counters::enable();
    let before = counters::local_snapshot();
    let first = engine.max_min_matching(&g);
    let delta = counters::local_snapshot().delta(&before);
    counters::disable();
    assert_eq!(
        first.len() as u64,
        side,
        "regular graphs peel perfect matchings"
    );
    assert_eq!(delta.get(Counter::ThresholdProbes), 1);
    let attempts = delta.get(Counter::KuhnAttempts);
    assert!(
        attempts <= side + m,
        "{attempts} kuhn_attempts for side {side}, {m} edges"
    );
}

#[test]
fn disabled_telemetry_records_nothing() {
    let _guard = LOCK.lock().unwrap();
    counters::disable();
    spans::disable();
    spans::reset();
    let before = counters::local_snapshot();
    let inst = fixed_instance(0x0ff, 10);
    std::hint::black_box(oggp(&inst));
    std::hint::black_box(ggp(&inst));
    let delta = counters::local_snapshot().delta(&before);
    assert!(
        delta.is_zero(),
        "disabled counters must not move: {delta:?}"
    );
    assert!(
        spans::drain_thread().is_empty(),
        "disabled spans must not allocate events"
    );
}
