//! Zero-dependency telemetry for the redistribution suite.
//!
//! The schedulers ([`kpbs`](../kpbs/index.html)), the matching engine
//! ([`bipartite`](../bipartite/index.html)), the network simulator
//! ([`flowsim`](../flowsim/index.html)) and the threaded runtime
//! ([`mpilite`](../mpilite/index.html)) are instrumented against this crate.
//! It provides three things, all built on `std` only (external crates are
//! vendored offline stubs, so nothing here may depend on one):
//!
//! * [`spans`] — a lightweight span/event API. Each thread records into a
//!   thread-local buffer; buffers flush into a global registry when the
//!   thread exits (or on [`spans::flush_local`]). Recording is gated by one
//!   global atomic flag: when spans are disabled, [`spans::span`] costs a
//!   relaxed atomic load and a branch, touches no thread-local storage, and
//!   allocates nothing.
//!
//! * [`counters`] — *deterministic work counters*: monotone counters of
//!   algorithmic work (Hopcroft–Karp phases, Kuhn augmentation attempts,
//!   DFS edge visits, max–min threshold probes, …). Because every counted
//!   quantity is a function of the input alone — never of wall-clock time —
//!   fixed-seed runs reproduce counter values exactly, which makes them a
//!   machine-checkable perf-regression signal (`BENCH_counters.json`,
//!   enforced by `scripts/check.sh`). Counters are thread-local on the hot
//!   path (no atomic contention) and aggregate into global totals when a
//!   thread exits, or into the joining thread's cells when a worker hands
//!   them over ([`counters::take_local`]).
//!
//! * [`export`] — exporters: Chrome trace-event JSON (loadable in Perfetto
//!   or `chrome://tracing`) for span timelines, and human-readable summary
//!   tables for spans and counters. [`json`] is the minimal JSON parser the
//!   exporters' tests validate output with.
//!
//! * [`histogram`] — fixed-bucket concurrent latency histograms (p50/p99
//!   without allocation), used by the `redistd` serving layer for its
//!   service and queue-wait summaries and by `redistload` for its
//!   client-side latencies.
//!
//! * [`metrics`] — a windowed metrics registry (monotonic counters, gauges,
//!   sliding-window summary quantiles over [`histogram`]) rendered in
//!   Prometheus text exposition format. Windows advance only on explicit
//!   calls, so output is deterministic and golden-testable; the `redistd`
//!   `METRICS` admin command serves [`metrics::Registry::render`] directly.
//!
//! * [`flight`] — an always-on flight recorder: a fixed-capacity,
//!   lock-cheap ring of per-request [`flight::FlightRecord`]s (queue depth,
//!   queue wait, plan time, cache outcome, execution retry/replan counts)
//!   so a shed or p99 request can be explained after the fact without
//!   having had tracing enabled.
//!
//! * [`cli`] — the one command-line parser of every binary in the
//!   workspace: options asked for by name, and one refusal (exit 2, one
//!   stderr line) for an unknown flag, a missing or malformed value and a
//!   repeated flag.
//!
//! # Quickstart
//!
//! ```
//! use telemetry::counters::{self, Counter};
//!
//! counters::enable();
//! let before = counters::local_snapshot();
//! // ... run instrumented code ...
//! telemetry::counters::add(Counter::DfsEdgeVisits, 3);
//! let work = counters::local_snapshot().delta(&before);
//! assert_eq!(work.get(Counter::DfsEdgeVisits), 3);
//! counters::disable();
//! ```
//!
//! ```
//! use telemetry::{export, spans};
//!
//! spans::enable();
//! {
//!     let _s = telemetry::span("demo.phase");
//!     // ... work ...
//! }
//! let events = spans::drain_thread();
//! let json = export::chrome_trace(&events);
//! assert!(json.contains("\"ph\":\"B\""));
//! spans::disable();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod counters;
pub mod export;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod spans;

pub use counters::Counter;
pub use flight::{FlightOutcome, FlightRecord, FlightRecorder};
pub use histogram::Histogram;
pub use metrics::{Registry, RegistryConfig};
pub use spans::{
    instant, instant_with, span, span_with, SpanArgs, SpanEvent, SpanGuard, SpanPhase,
};
