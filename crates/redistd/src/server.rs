//! The serving core: socket front-end, bounded request queue, worker
//! pool, plan cache, statistics, graceful shutdown.
//!
//! ```text
//!                        ┌────────────────────────────┐
//!   TCP clients ──────▶  │ socket front-end           │
//!                        │  epoll I/O threads         │
//!                        │  (event.rs)                │
//!                        └──────────┬─────────────────┘
//!                                   │ decode + validate
//!                                   │ reject: matrix_too_large
//!                                   │ key from the wire matrix, probe ──▶ cache
//!                                   │ hit: reply now (no queue, no worker)
//!                                   │ miss: try_push (never blocks)
//!                                   │ reject: queue_full
//!                        ┌──────────▼─────────────┐
//!                        │ BoundedQueue<Job>      │  ← backpressure boundary
//!                        └──────────┬─────────────┘
//!                                   │ pop
//!                        ┌──────────▼─────────────┐   ┌────────────────┐
//!                        │ worker pool (N threads)│ ⇄ │ sharded cache  │
//!                        │ re-probe → plan →      │   │ mutex per shard│
//!                        │ encode once → insert   │   │ encoded plans  │
//!                        └──────────┬─────────────┘   └────────────────┘
//!                                   │ CompletionSink: Inbox + eventfd
//!                        front-end writes the response frame
//! ```
//!
//! A plan request's cache key is streamed from the decoded CSR matrix
//! ([`wire::PlanRequest::cache_key`]) and probed in `admit_frame`, on the
//! I/O thread that decoded the frame. A hit is answered there — a decode,
//! a hash and a copy of the cached, already encoded schedule — and never
//! sees the queue, a worker wake-up or the completion hand-off; **hits
//! therefore bypass a full queue**. A miss carries its key to the worker,
//! which probes once more (a duplicate queued behind the request that
//! planned the matrix still hits) and only then builds the instance.
//!
//! The design reuses the discipline of [`kpbs::batch`]: work is handed to a
//! fixed pool through one queue, each request's work counters are measured
//! with thread-local snapshots on the worker that planned it, and planning
//! is a pure function of the request — so a response is byte-identical no
//! matter which worker produced it and whether the cache was warm.
//!
//! Shutdown ([`ServerHandle::shutdown`]) is drain-based: stop accepting,
//! close the queue (pushes fail, pops drain), join workers (every accepted
//! request gets its response), then join the I/O threads.

use crate::cache::{CacheStats, ShardedLru};
use crate::event::{self, CompletionSink};
use crate::queue::{BoundedQueue, PushError};
use crate::session::{DeltaError, Session, SessionTable};
use crate::wire::{
    self, Algo, PlanRequest, PlanResponse, RejectReason, Request, SessionLevel, SessionOp,
    SessionRejectReason, SessionRequest,
};
use kpbs::{DeltaPlanner, RepairLevel};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::counters::{self, Counter, COUNTER_COUNT};
use telemetry::flight::{FlightOutcome, FlightRecord, FlightRecorder};
use telemetry::metrics::{CounterHandle, GaugeHandle, Registry, RegistryConfig, SummaryHandle};

/// The socket front-end: the `epoll` event core (`event.rs`) is the only
/// one. The type and [`ServerConfig::core`] remain only because the
/// end-to-end benchmark (`benchmark/src/spec.rs`) names them in its pinned
/// config and its report line; the change that next edits `benchmark/`
/// (ROADMAP item 2(a′)) deletes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServingCore {
    /// Readiness-driven I/O threads over `epoll`.
    #[default]
    EventLoop,
}

impl ServingCore {
    /// Stable label the benchmark prints in its config line (`event`).
    pub fn label(self) -> &'static str {
        match self {
            ServingCore::EventLoop => "event",
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads planning requests.
    pub workers: usize,
    /// Bounded queue depth — requests beyond this are rejected with
    /// `queue_full`, never buffered.
    pub queue_depth: usize,
    /// Total plan-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Plan-cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Admission limit: matrices with more than this many cells are
    /// rejected with `matrix_too_large`.
    pub max_cells: u64,
    /// Test hook: artificial per-request think time in the worker, used to
    /// provoke deterministic overload/drain behaviour in tests. 0 in
    /// production.
    pub worker_think_ms: u64,
    /// Flight-recorder capacity: how many per-request records the `FLIGHT`
    /// admin command (and `--flight-dump`) can look back over.
    pub flight_capacity: usize,
    /// Socket front-end. It has one value; the field stays only for the
    /// benchmark's pinned config (see [`ServingCore`]), and goes with it.
    pub core: ServingCore,
    /// I/O threads multiplexing the sockets. Requests are small and
    /// planning lives on the worker pool, so a handful goes a long way.
    pub io_threads: usize,
    /// Backpressure: a connection whose unflushed response bytes exceed
    /// this stops being read until the peer drains.
    pub wbuf_limit: usize,
    /// Backpressure: decoded-but-unprocessed messages buffered per
    /// connection before reads park.
    pub pending_limit: usize,
    /// Concurrent delta-planning sessions admitted; `OPEN` beyond this is
    /// refused with `table_full` (backpressure, like the request queue).
    pub max_sessions: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8),
            queue_depth: 64,
            cache_capacity: 1024,
            cache_shards: 8,
            max_cells: 1 << 20,
            worker_think_ms: 0,
            flight_capacity: 1024,
            core: ServingCore::default(),
            io_threads: 2,
            wbuf_limit: 256 * 1024,
            pending_limit: 64,
            max_sessions: 64,
        }
    }
}

/// A planning outcome as the cache holds it: the schedule already in its
/// wire form, so a hit copies bytes instead of cloning and re-encoding one
/// `Vec` per step.
#[derive(Debug)]
struct PlanOutcome {
    /// [`wire::encode_schedule`] bytes.
    schedule: Vec<u8>,
    cost: u64,
    lower_bound: u64,
}

/// What admission control decided about one decoded frame.
pub(crate) enum Admission {
    /// Answer now with this response frame: a cache hit, a rejection or a
    /// decode error.
    Immediate(Vec<u8>),
    /// Accepted onto the worker queue; the [`CompletionSink`] answers
    /// later.
    Queued,
}

/// What a queued frame asks of the worker.
enum Work {
    /// A plan request that missed at admission, with the key it missed on.
    Plan {
        req: PlanRequest,
        key: u128,
    },
    Session(SessionRequest),
}

impl Work {
    /// The client's request id and wire version: what any answer echoes.
    fn reply_to(&self) -> (u64, u16) {
        match self {
            Work::Plan { req, .. } => (req.request_id, req.wire_version),
            Work::Session(req) => (req.request_id, req.wire_version),
        }
    }
}

struct Job {
    work: Work,
    /// Where the worker hands the encoded response; a dead connection
    /// drops it (the plan is still cached, so the work is not wasted).
    reply: CompletionSink,
    /// When admission started; queue wait and service time run from it.
    admitted: Instant,
    /// The flight record admission began (rid — the correlation key across
    /// the response's `server_id`, spans and this record — client id,
    /// shape, queue depth); the worker completes and pushes it.
    rec: FlightRecord,
}

/// The server's registered instruments — the single source of truth for
/// every count `METRICS` and [`ServerStats`] report. Names are part of the
/// observable surface (golden-tested); keep them in sync with DESIGN.md §14.
pub(crate) struct ServerMetrics {
    requests_planned: CounterHandle,
    requests_cache_hit: CounterHandle,
    requests_shed_queue_full: CounterHandle,
    requests_shed_too_large: CounterHandle,
    requests_error: CounterHandle,
    admissions_total: CounterHandle,
    request_bytes: CounterHandle,
    /// Accepted sockets.
    pub(crate) accepts_total: CounterHandle,
    /// Times a connection's read interest was parked because its write
    /// buffer or pending ring hit its limit.
    pub(crate) io_backpressure_total: CounterHandle,
    sessions_opened: CounterHandle,
    session_repairs: CounterHandle,
    session_repeels: CounterHandle,
    session_colds: CounterHandle,
    sessions_committed: CounterHandle,
    sessions_closed: CounterHandle,
    sessions_rejected: CounterHandle,
    service_us: SummaryHandle,
    queue_wait_us: SummaryHandle,
    plan_us: SummaryHandle,
    // Gauges refreshed on every render (see `refresh_gauges`).
    queue_depth: GaugeHandle,
    queue_capacity: GaugeHandle,
    workers: GaugeHandle,
    uptime_seconds: GaugeHandle,
    requests_per_second: GaugeHandle,
    connections_open: GaugeHandle,
    cache_hits: GaugeHandle,
    cache_misses: GaugeHandle,
    cache_insertions: GaugeHandle,
    cache_evictions: GaugeHandle,
    cache_entries: GaugeHandle,
    sessions_open: GaugeHandle,
}

impl ServerMetrics {
    fn register(r: &Registry) -> ServerMetrics {
        let req = |outcome| {
            r.counter(
                "redistd_requests_total",
                "Requests by final outcome.",
                &[("outcome", outcome)],
            )
        };
        let delta = |level| {
            r.counter(
                "redistd_session_deltas_total",
                "Session DELTA frames by repair-ladder level.",
                &[("level", level)],
            )
        };
        ServerMetrics {
            requests_planned: req("planned"),
            requests_cache_hit: req("cache_hit"),
            requests_shed_queue_full: req("shed_queue_full"),
            requests_shed_too_large: req("shed_too_large"),
            requests_error: req("error"),
            admissions_total: r.counter(
                "redistd_admissions_total",
                "Frames that reached admission control (every rid minted).",
                &[],
            ),
            request_bytes: r.counter(
                "redistd_request_bytes_total",
                "Total payload bytes across admitted traffic matrices.",
                &[],
            ),
            accepts_total: r.counter(
                "redistd_accepts_total",
                "Client sockets accepted since start.",
                &[],
            ),
            io_backpressure_total: r.counter(
                "redistd_io_backpressure_total",
                "Connections whose reads were parked by per-connection backpressure.",
                &[],
            ),
            sessions_opened: r.counter(
                "redistd_sessions_opened_total",
                "Delta-planning sessions opened since start.",
                &[],
            ),
            session_repairs: delta("repair"),
            session_repeels: delta("repeel"),
            session_colds: delta("cold"),
            sessions_committed: r.counter(
                "redistd_sessions_committed_total",
                "Session COMMIT ops acknowledged (the plan stays in its session; nothing is cached).",
                &[],
            ),
            sessions_closed: r.counter(
                "redistd_sessions_closed_total",
                "Sessions closed since start.",
                &[],
            ),
            sessions_rejected: r.counter(
                "redistd_sessions_rejected_total",
                "Session ops refused (table full or unknown session).",
                &[],
            ),
            service_us: r.summary(
                "redistd_service_us",
                "Admission to response-ready, microseconds.",
                &[],
            ),
            queue_wait_us: r.summary(
                "redistd_queue_wait_us",
                "Admission to worker pickup, microseconds; only requests that queued (cache hits answered at admission never do).",
                &[],
            ),
            plan_us: r.summary(
                "redistd_plan_us",
                "Planning time on the worker (cache misses), microseconds.",
                &[],
            ),
            queue_depth: r.gauge("redistd_queue_depth", "Requests queued right now.", &[]),
            queue_capacity: r.gauge("redistd_queue_capacity", "Configured queue bound.", &[]),
            workers: r.gauge("redistd_workers", "Configured worker threads.", &[]),
            uptime_seconds: r.gauge("redistd_uptime_seconds", "Seconds since start.", &[]),
            requests_per_second: r.gauge(
                "redistd_requests_per_second",
                "Admission rate over the sliding window.",
                &[],
            ),
            connections_open: r.gauge(
                "redistd_connections_open",
                "Client connections currently open.",
                &[],
            ),
            cache_hits: r.gauge("redistd_cache_hits", "Plan-cache hits since start.", &[]),
            cache_misses: r.gauge(
                "redistd_cache_misses",
                "Plan-cache misses since start.",
                &[],
            ),
            cache_insertions: r.gauge(
                "redistd_cache_insertions",
                "Plan-cache insertions since start.",
                &[],
            ),
            cache_evictions: r.gauge(
                "redistd_cache_evictions",
                "Plan-cache evictions since start.",
                &[],
            ),
            cache_entries: r.gauge("redistd_cache_entries", "Plan-cache entries resident.", &[]),
            sessions_open: r.gauge(
                "redistd_sessions_open",
                "Delta-planning sessions open right now.",
                &[],
            ),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    queue: BoundedQueue<Job>,
    cache: ShardedLru<PlanOutcome>,
    started: Instant,
    /// Request-id mint: the next rid is `admissions + 1`, so rid 0 never
    /// occurs and can mean "not correlated" on the wire.
    admissions: AtomicU64,
    /// Client connections currently open, maintained by the I/O threads.
    pub(crate) open_connections: AtomicU64,
    registry: Registry,
    pub(crate) metrics: ServerMetrics,
    pub(crate) flight: FlightRecorder,
    sessions: SessionTable,
}

impl Shared {
    fn mint_rid(&self) -> u64 {
        self.admissions.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Refreshes the point-in-time gauges `METRICS` exports.
    fn refresh_gauges(&self) {
        let cache = self.cache.stats();
        let m = &self.metrics;
        m.queue_depth.set(self.queue.len() as f64);
        m.queue_capacity.set(self.queue.capacity() as f64);
        m.workers.set(self.config.workers as f64);
        m.uptime_seconds.set(self.started.elapsed().as_secs_f64());
        m.requests_per_second.set(m.admissions_total.rate());
        m.connections_open
            .set(self.open_connections.load(Ordering::Relaxed) as f64);
        m.cache_hits.set(cache.hits as f64);
        m.cache_misses.set(cache.misses as f64);
        m.cache_insertions.set(cache.insertions as f64);
        m.cache_evictions.set(cache.evictions as f64);
        m.cache_entries.set(cache.len as f64);
        m.sessions_open.set(self.sessions.len() as f64);
    }

    pub(crate) fn render_metrics(&self) -> String {
        self.registry.tick();
        self.refresh_gauges();
        self.registry.render()
    }

    /// Books one answered request — outcome counter, flight record, and
    /// service time (admission to response-ready; what remains is byte
    /// shuffling on the front-end) — wherever it was answered.
    fn record_served(&self, rec: FlightRecord, admitted: Instant) {
        match rec.outcome {
            FlightOutcome::CacheHit => self.metrics.requests_cache_hit.inc(),
            FlightOutcome::Planned => {
                self.metrics.requests_planned.inc();
                self.metrics.plan_us.observe(rec.plan_us);
            }
            _ => {}
        }
        self.flight.push(rec);
        self.metrics.service_us.observe(micros_since(admitted));
    }
}

fn micros_since(t: Instant) -> u64 {
    t.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// A point-in-time operational snapshot, read from the same metric handles
/// `METRICS` exports ([`ServerHandle::stats`]).
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Requests answered `Ok` (cache hits and misses).
    pub served: u64,
    /// Plan-cache statistics.
    pub cache: CacheStats,
    /// Requests rejected because the queue was full (or shutting down).
    pub rejected_queue_full: u64,
    /// Requests rejected because the matrix exceeded `max_cells`.
    pub rejected_too_large: u64,
    /// Malformed requests answered with an error frame.
    pub errors: u64,
    /// Items currently queued.
    pub queue_depth: usize,
    /// Configured queue capacity.
    pub queue_capacity: usize,
    /// Configured worker count.
    pub workers: usize,
    /// Service-time p50 in microseconds (admission to response ready).
    pub p50_us: u64,
    /// Service-time p99 in microseconds.
    pub p99_us: u64,
    /// Mean service time in microseconds.
    pub mean_us: u64,
    /// Queue-wait p50 in microseconds (admission to worker pickup; only
    /// requests that queued — hits answered at admission are not sampled).
    pub queue_wait_p50_us: u64,
    /// Queue-wait p99 in microseconds.
    pub queue_wait_p99_us: u64,
    /// Mean queue wait in microseconds.
    pub queue_wait_mean_us: u64,
    /// Client connections open right now.
    pub connections_open: u64,
    /// Delta-planning sessions open right now.
    pub sessions_open: usize,
    /// Sessions opened since start.
    pub sessions_opened: u64,
    /// `DELTA` frames absorbed by in-place repair.
    pub session_repairs: u64,
    /// `DELTA` frames that needed a bounded re-peel.
    pub session_repeels: u64,
    /// `DELTA` frames that fell back to a cold plan.
    pub session_colds: u64,
    /// Session `COMMIT` ops acknowledged. A commit answers the current plan
    /// and caches nothing: no request could look a committed plan up.
    pub sessions_committed: u64,
    /// Sessions closed since start.
    pub sessions_closed: u64,
    /// Session ops refused (table full or unknown session).
    pub sessions_rejected: u64,
}

impl ServerStats {
    pub(crate) fn gather(shared: &Shared) -> ServerStats {
        let m = &shared.metrics;
        let mean = |s: &SummaryHandle| s.sum().checked_div(s.count()).unwrap_or(0);
        ServerStats {
            served: m.requests_planned.value() + m.requests_cache_hit.value(),
            cache: shared.cache.stats(),
            rejected_queue_full: m.requests_shed_queue_full.value(),
            rejected_too_large: m.requests_shed_too_large.value(),
            errors: m.requests_error.value(),
            queue_depth: shared.queue.len(),
            queue_capacity: shared.queue.capacity(),
            workers: shared.config.workers,
            p50_us: m.service_us.quantile(0.5),
            p99_us: m.service_us.quantile(0.99),
            mean_us: mean(&m.service_us),
            queue_wait_p50_us: m.queue_wait_us.quantile(0.5),
            queue_wait_p99_us: m.queue_wait_us.quantile(0.99),
            queue_wait_mean_us: mean(&m.queue_wait_us),
            connections_open: shared.open_connections.load(Ordering::Relaxed),
            sessions_open: shared.sessions.len(),
            sessions_opened: m.sessions_opened.value(),
            session_repairs: m.session_repairs.value(),
            session_repeels: m.session_repeels.value(),
            session_colds: m.session_colds.value(),
            sessions_committed: m.sessions_committed.value(),
            sessions_closed: m.sessions_closed.value(),
            sessions_rejected: m.sessions_rejected.value(),
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the threads (the process exiting
/// reaps them); call `shutdown` for a clean drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The I/O threads; taken when they are joined.
    io: Option<event::IoHandle>,
}

/// Starts a server on `config.addr` and returns its handle once the
/// listener is bound (requests can be sent immediately).
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let registry = Registry::new(RegistryConfig::default());
    let metrics = ServerMetrics::register(&registry);
    let shared = Arc::new(Shared {
        queue: BoundedQueue::new(config.queue_depth),
        cache: ShardedLru::new(config.cache_capacity, config.cache_shards),
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        admissions: AtomicU64::new(0),
        open_connections: AtomicU64::new(0),
        registry,
        metrics,
        flight: FlightRecorder::new(config.flight_capacity),
        sessions: SessionTable::new(config.max_sessions),
        config,
    });

    let workers = (0..shared.config.workers.max(1))
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("redistd-worker-{i}"))
                .spawn(move || worker_loop(&shared, i as u32))
                .expect("spawn worker")
        })
        .collect();

    let io = Some(event::start_io(shared.clone(), listener)?);

    Ok(ServerHandle {
        addr,
        shared,
        workers,
        io,
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A statistics snapshot.
    pub fn stats(&self) -> ServerStats {
        ServerStats::gather(&self.shared)
    }

    /// The Prometheus text exposition the `METRICS` admin command serves
    /// (gauges refreshed to now).
    pub fn metrics_text(&self) -> String {
        self.shared.render_metrics()
    }

    /// The flight-recorder dump the `FLIGHT` admin command serves.
    pub fn flight_text(&self) -> String {
        self.shared.flight.render()
    }

    /// Asks the server to shut down without waiting (used by signal
    /// handlers); follow with [`ServerHandle::shutdown`] to drain and join.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Graceful shutdown: stop accepting, drain every admitted request to
    /// its response, join all threads. Returns the final statistics.
    pub fn shutdown(self) -> ServerStats {
        self.shutdown_with_flight().0
    }

    /// [`ServerHandle::shutdown`], additionally returning the post-drain
    /// flight-recorder dump — taken *after* workers joined, so it covers
    /// every request the server ever answered (`--flight-dump` uses this).
    pub fn shutdown_with_flight(mut self) -> (ServerStats, String) {
        self.request_shutdown();
        // Wake the I/O threads so they stop accepting now; they keep
        // serving completions until the drain finishes.
        if let Some(io) = &self.io {
            io.wake_all();
        }
        // No new work is admitted now; close the queue so workers drain
        // the backlog and exit.
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Every completion has been delivered; join the I/O threads.
        if let Some(io) = self.io.take() {
            io.join();
        }
        (
            ServerStats::gather(&self.shared),
            self.shared.flight.render(),
        )
    }
}

/// Decodes and admits one frame: decode → validate → key → probe →
/// {reply | queue}. `reply` routes the answer of a queued frame back to its
/// connection; it is dropped unused when the frame is answered here.
pub(crate) fn admit_frame(
    shared: &Arc<Shared>,
    payload: &[u8],
    reply: CompletionSink,
) -> Admission {
    let start = Instant::now();
    shared.registry.tick();
    let rid = shared.mint_rid();
    shared.metrics.admissions_total.inc();
    let req = match wire::decode_frame(payload) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.requests_error.inc();
            let client_id = peek_request_id(payload);
            let mut rec = FlightRecord::new(rid, FlightOutcome::Error);
            rec.client_id = client_id;
            rec.queue_depth = shared.queue.len() as u32;
            shared.flight.push(rec);
            return Admission::Immediate(wire::encode_response(
                &PlanResponse::Error {
                    request_id: client_id,
                    message: e.0,
                },
                peek_version(payload),
            ));
        }
    };
    let request_id = req.request_id();
    let version = req.wire_version();
    let matrix = request_matrix(&req);
    let mut rec = FlightRecord::new(rid, FlightOutcome::Error);
    rec.client_id = request_id;
    rec.bytes = matrix.map_or(0, |m| m.total_bytes());
    rec.n1 = matrix.map_or(0, |m| m.n1);
    rec.n2 = matrix.map_or(0, |m| m.n2);
    rec.queue_depth = shared.queue.len() as u32;
    let reject = |reason| {
        Admission::Immediate(wire::encode_response(
            &PlanResponse::Rejected { request_id, reason },
            version,
        ))
    };

    // Admission control, cheapest check first. Rejections answer
    // immediately — the whole point is never to buffer beyond the bound.
    // Matrix-bearing frames (stateless plans, session OPENs) are bounded
    // here; session growth re-checks the same limit on the worker.
    if matrix.is_some_and(|m| m.cells() > shared.config.max_cells) {
        counters::incr(Counter::ServeRejected);
        shared.metrics.requests_shed_too_large.inc();
        rec.outcome = FlightOutcome::ShedTooLarge;
        shared.flight.push(rec);
        return reject(RejectReason::MatrixTooLarge);
    }
    shared.metrics.request_bytes.add(rec.bytes);

    let work = match req {
        Request::Plan(req) => {
            // The decoder bounded every tick conversion, so the key is
            // total — nothing a socket sends can panic this thread.
            let key = req.cache_key();
            if let Some(hit) = shared.cache.get_if_present(key) {
                counters::incr(Counter::ServeRequests);
                rec.outcome = FlightOutcome::CacheHit;
                let frame = hit_frame(&req, &hit, rid);
                shared.record_served(rec, start);
                return Admission::Immediate(frame);
            }
            Work::Plan { req, key }
        }
        Request::Session(req) => Work::Session(req),
    };
    let job = Job {
        work,
        reply,
        admitted: start,
        rec,
    };
    match shared.queue.try_push(job) {
        Err(PushError::Full(job)) | Err(PushError::Closed(job)) => {
            counters::incr(Counter::ServeRejected);
            shared.metrics.requests_shed_queue_full.inc();
            let mut rec = job.rec;
            rec.outcome = FlightOutcome::ShedQueueFull;
            shared.flight.push(rec);
            reject(RejectReason::QueueFull)
        }
        Ok(()) => Admission::Queued,
    }
}

fn worker_loop(shared: &Arc<Shared>, worker: u32) {
    while let Some(job) = shared.queue.pop() {
        let Job {
            work,
            reply,
            admitted,
            mut rec,
        } = job;
        rec.queue_wait_us = micros_since(admitted);
        shared.metrics.queue_wait_us.observe(rec.queue_wait_us);
        if shared.config.worker_think_ms > 0 {
            std::thread::sleep(Duration::from_millis(shared.config.worker_think_ms));
        }
        let plan_start = Instant::now();
        // A panic in the planner must cost one request, not the worker and
        // not the connection waiting on `reply`: answer it with an error.
        let served = panic::catch_unwind(AssertUnwindSafe(|| serve(shared, &work, rec.rid)));
        let (frame, outcome) = served.unwrap_or_else(|_| {
            shared.metrics.requests_error.inc();
            let (request_id, version) = work.reply_to();
            let resp = PlanResponse::Error {
                request_id,
                message: "worker panicked while serving the request".into(),
            };
            (wire::encode_response(&resp, version), FlightOutcome::Error)
        });
        rec.outcome = outcome;
        if outcome != FlightOutcome::CacheHit {
            rec.plan_us = micros_since(plan_start);
        }
        rec.worker = worker;
        shared.record_served(rec, admitted);
        reply.complete(frame);
    }
}

/// Runs one queued job to its response frame and flight outcome.
fn serve(shared: &Arc<Shared>, work: &Work, rid: u64) -> (Vec<u8>, FlightOutcome) {
    #[cfg(test)]
    if work.reply_to().0 == tests::PANIC_REQUEST_ID {
        panic!("injected worker panic");
    }
    match work {
        Work::Plan { req, key } => plan_request(shared, req, *key, rid),
        Work::Session(req) => session_request(shared, req, rid),
    }
}

/// The traffic matrix a frame carries, when it carries one (stateless
/// plans and session `OPEN`s); admission and flight accounting share it.
fn request_matrix(req: &Request) -> Option<&wire::CsrMatrix> {
    match req {
        Request::Plan(p) => Some(&p.matrix),
        Request::Session(s) => match &s.op {
            SessionOp::Open { matrix, .. } => Some(matrix),
            _ => None,
        },
    }
}

/// The work-counter deltas accumulated on this thread since `before`, in
/// the fixed [`telemetry::counters::Counter::ALL`] wire order.
fn work_since(before: &telemetry::counters::Snapshot) -> [u64; COUNTER_COUNT] {
    let delta = counters::local_snapshot().delta(before);
    let mut work = [0u64; COUNTER_COUNT];
    for (i, (_, v)) in delta.iter().enumerate() {
        work[i] = v;
    }
    work
}

/// Counts a served hit (`ServeCacheHits`, the `redistd.cache_hit` instant)
/// and builds the `Ok` frame answering `req` from cache entry `hit` — at
/// admission or on a worker's re-probe. A hit does no planning work, so the
/// work delta is genuinely zero; `rid` becomes the response's `server_id`,
/// tying it to the span timeline and the flight record.
fn hit_frame(req: &PlanRequest, hit: &PlanOutcome, rid: u64) -> Vec<u8> {
    counters::incr(Counter::ServeCacheHits);
    telemetry::instant_with("redistd.cache_hit", &[("rid", rid)]);
    wire::encode_ok(
        req.wire_version,
        req.request_id,
        true,
        &hit.schedule,
        hit.cost,
        hit.lower_bound,
        &[0; COUNTER_COUNT],
        rid,
    )
}

/// Serves one queued plan request: re-probe with the admission-time `key`
/// (a duplicate queued behind the request that planned this matrix hits
/// here), and only on a miss build the canonical instance, plan, encode the
/// schedule once and use those bytes for both the cache entry and the
/// reply. Pure per request — the response does not depend on which worker
/// ran it.
fn plan_request(
    shared: &Arc<Shared>,
    req: &PlanRequest,
    key: u128,
    rid: u64,
) -> (Vec<u8>, FlightOutcome) {
    let _span = telemetry::span_with("redistd.plan", &[("rid", rid)]);
    counters::incr(Counter::ServeRequests);
    if let Some(hit) = shared.cache.get(key) {
        return (hit_frame(req, &hit, rid), FlightOutcome::CacheHit);
    }
    telemetry::instant_with("redistd.cache_miss", &[("rid", rid)]);

    let (inst, _endpoints) = req.matrix.to_traffic().to_instance(
        &req.platform.to_platform(),
        req.platform.beta_seconds,
        wire::TICK_SCALE,
    );
    debug_assert_eq!(key, kpbs::cache_key(&inst, req.algo as u64));
    let before = counters::local_snapshot();
    let schedule = kpbs::Algo::from(req.algo).plan(&inst);
    let work = work_since(&before);
    let outcome = Arc::new(PlanOutcome {
        schedule: wire::encode_schedule(&schedule),
        cost: schedule.cost(),
        lower_bound: kpbs::lower_bound(&inst),
    });
    shared.cache.insert(key, outcome.clone());
    let frame = wire::encode_ok(
        req.wire_version,
        req.request_id,
        false,
        &outcome.schedule,
        outcome.cost,
        outcome.lower_bound,
        &work,
        rid,
    );
    (frame, FlightOutcome::Planned)
}

/// Executes one session op on the worker and encodes its answer. `OPEN`
/// cold-plans the matrix into a fresh [`DeltaPlanner`] and registers it;
/// `DELTA` converts the byte edits (validated *before* the planner sees
/// them — `replan` panics on malformed indices) and climbs the repair
/// ladder; `COMMIT` acknowledges the current plan; `CLOSE` frees the slot.
/// Each session serialises its own ops behind its mutex, and every answer
/// is encoded under that lock straight from the session's schedule; ops on
/// different sessions run concurrently across workers.
fn session_request(
    shared: &Arc<Shared>,
    req: &SessionRequest,
    rid: u64,
) -> (Vec<u8>, FlightOutcome) {
    let _span = telemetry::span_with("redistd.session", &[("rid", rid)]);
    counters::incr(Counter::ServeRequests);
    let (request_id, version) = (req.request_id, req.wire_version);
    // Session successes count as planned work (repairs *are* planning);
    // refusals are tallied by `sessions_rejected`, protocol errors by
    // `requests_error`.
    let answer =
        |session_id, level, s: &Session, cost, lower_bound, work: &[u64; COUNTER_COUNT]| {
            let frame = wire::encode_session(
                version,
                request_id,
                session_id,
                s.planner.generation(),
                level,
                s.planner.schedule(),
                cost,
                lower_bound,
                work,
                rid,
            );
            (frame, FlightOutcome::Planned)
        };
    let refuse = |resp: PlanResponse| {
        if matches!(resp, PlanResponse::Error { .. }) {
            shared.metrics.requests_error.inc();
        }
        (wire::encode_response(&resp, version), FlightOutcome::Error)
    };
    let unknown = |session_id: u64| {
        shared.metrics.sessions_rejected.inc();
        refuse(PlanResponse::SessionRejected {
            request_id,
            session_id,
            reason: SessionRejectReason::UnknownSession,
        })
    };
    match &req.op {
        SessionOp::Open {
            algo,
            platform,
            matrix,
        } => {
            if *algo != Algo::Oggp {
                return refuse(PlanResponse::Error {
                    request_id,
                    message: "sessions require the oggp algorithm (incremental repair reuses its warm matching engine)".into(),
                });
            }
            let p = platform.to_platform();
            let (inst, _endpoints) =
                matrix
                    .to_traffic()
                    .to_instance(&p, platform.beta_seconds, wire::TICK_SCALE);
            let before = counters::local_snapshot();
            let planner = DeltaPlanner::new(inst);
            let work = work_since(&before);
            let session = Session {
                platform: p,
                scale: wire::TICK_SCALE,
                planner,
            };
            let opened = shared.sessions.open(session, |session_id, s| {
                let cost = s.planner.schedule().cost();
                let lower_bound = kpbs::lower_bound(s.planner.instance());
                answer(
                    session_id,
                    SessionLevel::Opened,
                    s,
                    cost,
                    lower_bound,
                    &work,
                )
            });
            match opened {
                Some(frame) => {
                    shared.metrics.sessions_opened.inc();
                    frame
                }
                None => {
                    shared.metrics.sessions_rejected.inc();
                    refuse(PlanResponse::SessionRejected {
                        request_id,
                        session_id: 0,
                        reason: SessionRejectReason::TableFull,
                    })
                }
            }
        }
        SessionOp::Delta { session_id, deltas } => {
            let Some(sess) = shared.sessions.get(*session_id) else {
                return unknown(*session_id);
            };
            let mut s = sess.lock().unwrap();
            let converted = match s.convert_deltas(deltas, shared.config.max_cells) {
                Ok(v) => v,
                Err(DeltaError::OutOfRange(message) | DeltaError::TickOverflow(message)) => {
                    return refuse(PlanResponse::Error {
                        request_id,
                        message,
                    })
                }
                Err(DeltaError::TooLarge) => {
                    counters::incr(Counter::ServeRejected);
                    return refuse(PlanResponse::Rejected {
                        request_id,
                        reason: RejectReason::MatrixTooLarge,
                    });
                }
            };
            let before = counters::local_snapshot();
            let outcome = s.planner.replan(&converted);
            let work = work_since(&before);
            let level = match outcome.level {
                RepairLevel::Repair => {
                    shared.metrics.session_repairs.inc();
                    SessionLevel::Repair
                }
                RepairLevel::RePeel => {
                    shared.metrics.session_repeels.inc();
                    SessionLevel::RePeel
                }
                RepairLevel::Cold => {
                    shared.metrics.session_colds.inc();
                    SessionLevel::Cold
                }
            };
            answer(
                *session_id,
                level,
                &s,
                outcome.cost,
                outcome.lower_bound,
                &work,
            )
        }
        SessionOp::Commit { session_id } | SessionOp::Close { session_id } => {
            let closing = matches!(req.op, SessionOp::Close { .. });
            let found = if closing {
                shared.sessions.close(*session_id)
            } else {
                shared.sessions.get(*session_id)
            };
            let Some(sess) = found else {
                return unknown(*session_id);
            };
            let level = if closing {
                shared.metrics.sessions_closed.inc();
                SessionLevel::Closed
            } else {
                shared.metrics.sessions_committed.inc();
                SessionLevel::Committed
            };
            let s = sess.lock().unwrap();
            let cost = s.planner.schedule().cost();
            let lower_bound = kpbs::lower_bound(s.planner.instance());
            answer(
                *session_id,
                level,
                &s,
                cost,
                lower_bound,
                &[0; COUNTER_COUNT],
            )
        }
    }
}

/// Best-effort extraction of the request id from a frame that failed to
/// decode (offset 7..15 after magic + version + kind), so even an error
/// response can be correlated by the client.
fn peek_request_id(payload: &[u8]) -> u64 {
    if payload.len() >= 15 && payload[..4] == wire::MAGIC {
        u64::from_be_bytes(payload[7..15].try_into().unwrap())
    } else {
        0
    }
}

/// Best-effort extraction of the wire version from a frame that failed to
/// decode, so the error response is encoded in a version the sender can
/// parse. Unreadable or unsupported versions fall back to [`wire::MIN_VERSION`],
/// which every client accepts.
fn peek_version(payload: &[u8]) -> u16 {
    if payload.len() >= 6 && payload[..4] == wire::MAGIC {
        let v = u16::from_be_bytes(payload[4..6].try_into().unwrap());
        if (wire::MIN_VERSION..=wire::VERSION).contains(&v) {
            return v;
        }
    }
    wire::MIN_VERSION
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{self, Client};
    use kpbs::TrafficMatrix;

    /// A request carrying this id makes the worker that serves it panic.
    pub(super) const PANIC_REQUEST_ID: u64 = 0xdead_beef_0bad_cafe;

    /// A worker panic answers its request with an error frame, the
    /// connection keeps working, and the pool keeps all of its threads.
    #[test]
    fn worker_panic_answers_error_and_keeps_serving() {
        let handle = start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let platform = kpbs::Platform::new(4, 4, 100.0, 100.0, 200.0);
        let mut traffic = TrafficMatrix::zeros(4, 4);
        traffic.set(0, 1, 3_000_000);
        traffic.set(2, 3, 5_000_000);
        let mut conn = Client::connect(handle.addr()).unwrap();

        let poison = client::request(PANIC_REQUEST_ID, Algo::Oggp, &traffic, &platform, 0.05);
        match conn.plan(&poison).unwrap() {
            PlanResponse::Error { request_id, .. } => assert_eq!(request_id, PANIC_REQUEST_ID),
            other => panic!("expected an error frame, got {other:?}"),
        }
        let next = client::request(7, Algo::Oggp, &traffic, &platform, 0.05);
        match conn.plan(&next).unwrap() {
            PlanResponse::Ok { request_id, .. } => assert_eq!(request_id, 7),
            other => panic!("the connection stopped serving: {other:?}"),
        }
        let poisoned = format!("client_id={PANIC_REQUEST_ID} outcome=error");
        assert!(handle.flight_text().contains(&poisoned), "no flight record");
        assert_eq!(handle.workers.len(), 2);
        assert!(
            handle.workers.iter().all(|w| !w.is_finished()),
            "a worker died"
        );
        let stats = handle.shutdown();
        assert_eq!(stats.errors, 1);
    }
}
