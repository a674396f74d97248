//! `redistload` — load generator and correctness checker for `redistd`.
//!
//! ```sh
//! redistload [--addr HOST:PORT] [--connections 16] [--requests 256]
//!            [--distinct 16] [--n 12] [--rate REQS_PER_SEC] [--queue-depth N]
//! ```
//!
//! Without `--addr` it hosts a server in-process on a free port. It
//! generates `--distinct` deterministic random traffic matrices, replays
//! them round-robin from `--connections` client threads, and for every
//! response checks that:
//!
//! * the schedule byte-compares equal (via `wire::encode_schedule`) to a
//!   cold plan of the same instance computed locally — cache hits must be
//!   indistinguishable from misses;
//! * the schedule passes [`mod@kpbs::validate`] and its cost is bounded below
//!   by [`kpbs::lower_bound()`];
//! * every `Ok` response carries a non-zero `server_id` (the server-minted
//!   correlation id that joins the response to the server's flight record
//!   and span timeline).
//!
//! Two pacing modes. The default is **closed-loop**: each connection fires
//! its next request the moment the previous response lands, measuring the
//! server at the offered concurrency. `--rate R` switches to **open-loop**:
//! the target arrival rate is split across connections, every request gets
//! a wall-clock send deadline up front, and latency is measured from that
//! *scheduled* time — so a slow server that makes senders fall behind pays
//! for the queueing delay it caused instead of quietly suppressing the
//! arrivals (coordinated omission).
//!
//! After the run it scrapes the server's `METRICS` exposition, validates
//! its well-formedness and prints one summary line. An unknown flag, a
//! missing, malformed or repeated value exits 2; a wrong response, an
//! invalid exposition, or a cold cache despite repeated matrices exits 1;
//! `--help` prints the usage and exits 0. Timing the serving path is the
//! end-to-end benchmark's job (`benchmark/`, the `serve-*` and
//! `session-delta` workloads); this binary is a correctness check.

use kpbs::traffic::TickScale;
use kpbs::{Platform, TrafficMatrix};
use redistd::client::{self, Client};
use redistd::server::{self, ServerConfig};
use redistd::wire::{self, Algo, PlanResponse};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use telemetry::cli::Args;
use telemetry::{metrics, Histogram};

const BETA_SECONDS: f64 = 0.05;

/// Connect attempts per client thread before a connection counts as failed.
const CONNECT_ATTEMPTS: u32 = 8;

/// Hard ceiling on `--connections`: beyond this the generator itself
/// (thread stacks, ephemeral ports) becomes the bottleneck and the numbers
/// stop describing the server.
const MAX_CONNECTIONS: usize = 4096;

/// Deterministic xorshift64* — the workspace is std-only, so no `rand`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// One pre-planned workload item: the request to send and the expected
/// schedule bytes from a cold local plan.
struct WorkItem {
    traffic: TrafficMatrix,
    expected_bytes: Vec<u8>,
    expected_cost: u64,
    lower_bound: u64,
}

fn build_workload(distinct: usize, n: usize, platform: &Platform) -> Vec<WorkItem> {
    (0..distinct)
        .map(|i| {
            let mut rng = Rng::new(0xC0FF_EE00 + i as u64);
            let mut traffic = TrafficMatrix::zeros(n, n);
            // ~40% dense, messages 1..64 MB — big enough that every
            // instance needs several steps.
            for r in 0..n {
                for c in 0..n {
                    if rng.below(10) < 4 {
                        traffic.set(r, c, (1 + rng.below(64)) * 1_000_000);
                    }
                }
            }
            // Guarantee non-empty.
            if traffic.total_bytes() == 0 {
                traffic.set(0, 0, 8_000_000);
            }
            let (inst, _) = traffic.to_instance(platform, BETA_SECONDS, TickScale::MILLIS);
            let schedule = kpbs::oggp(&inst);
            kpbs::validate::validate(&inst, &schedule).expect("cold plan must validate");
            WorkItem {
                expected_bytes: wire::encode_schedule(&schedule),
                expected_cost: schedule.cost(),
                lower_bound: kpbs::lower_bound(&inst),
                traffic,
            }
        })
        .collect()
}

#[derive(Default)]
struct Outcome {
    hits: u64,
    failures: u64,
}

/// Checks one response against its cold reference, updating `out`.
fn check_response(i: u64, resp: PlanResponse, item: &WorkItem, out: &mut Outcome) {
    match resp {
        PlanResponse::Ok {
            request_id,
            cached,
            schedule,
            cost,
            lower_bound,
            server_id,
            ..
        } => {
            let bytes = wire::encode_schedule(&schedule);
            if request_id != i
                || bytes != item.expected_bytes
                || cost != item.expected_cost
                || lower_bound != item.lower_bound
                || cost < lower_bound
            {
                eprintln!(
                    "redistload: request {i} mismatch (cached={cached}, \
                     cost {cost} vs expected {}, lb {lower_bound} vs {})",
                    item.expected_cost, item.lower_bound
                );
                out.failures += 1;
            }
            // Every `Ok` carries the server-minted id, counted from 1,
            // so 0 means the server failed to correlate the request.
            if server_id == 0 {
                eprintln!("redistload: request {i} carried no server_id");
                out.failures += 1;
            }
            if cached {
                out.hits += 1;
            }
        }
        other => {
            eprintln!("redistload: request {i} unexpected response: {other:?}");
            out.failures += 1;
        }
    }
}

/// Closed-loop worker: pull the next global request index, send, wait,
/// repeat. Latency is response time at the offered concurrency.
fn run_closed(
    addr: SocketAddr,
    items: &[WorkItem],
    platform: &Platform,
    next: &AtomicU64,
    requests: u64,
    latency_us: &Histogram,
) -> Outcome {
    let mut client = match Client::connect_with_retry(addr, CONNECT_ATTEMPTS) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("redistload: connect failed after {CONNECT_ATTEMPTS} attempts: {e}");
            return Outcome {
                failures: 1,
                ..Outcome::default()
            };
        }
    };
    let mut out = Outcome::default();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= requests {
            return out;
        }
        let item = &items[(i as usize) % items.len()];
        let req = client::request(i, Algo::Oggp, &item.traffic, platform, BETA_SECONDS);
        let start = Instant::now();
        let resp = match client.plan(&req) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("redistload: request {i} transport error: {e}");
                out.failures += 1;
                return out;
            }
        };
        latency_us.record(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        check_response(i, resp, item, &mut out);
    }
}

/// Open-loop worker: this thread owns request indices
/// `worker, worker+stride, ...` and sends each at its precomputed deadline
/// (`base + i/rate`), never earlier. Latency runs from the *deadline*, so
/// time spent stuck behind a slow previous response is charged to the
/// server — the coordinated-omission correction.
#[allow(clippy::too_many_arguments)]
fn run_open(
    addr: SocketAddr,
    items: &[WorkItem],
    platform: &Platform,
    base: Instant,
    worker: u64,
    stride: u64,
    requests: u64,
    interval: Duration,
    latency_us: &Histogram,
) -> Outcome {
    let mut client = match Client::connect_with_retry(addr, CONNECT_ATTEMPTS) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("redistload: connect failed after {CONNECT_ATTEMPTS} attempts: {e}");
            return Outcome {
                failures: 1,
                ..Outcome::default()
            };
        }
    };
    let mut out = Outcome::default();
    let mut i = worker;
    while i < requests {
        let deadline = base + interval * (i as u32);
        let now = Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
        let item = &items[(i as usize) % items.len()];
        let req = client::request(i, Algo::Oggp, &item.traffic, platform, BETA_SECONDS);
        let resp = match client.plan(&req) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("redistload: request {i} transport error: {e}");
                out.failures += 1;
                return out;
            }
        };
        latency_us.record(deadline.elapsed().as_micros().min(u64::MAX as u128) as u64);
        check_response(i, resp, item, &mut out);
        i += stride;
    }
    out
}

/// Drives `connections` client threads against `addr`, closed-loop unless
/// `rate > 0`; returns the merged outcome and the wall time of the run.
fn run_point(
    addr: SocketAddr,
    items: &[WorkItem],
    platform: &Platform,
    connections: usize,
    requests: u64,
    rate: f64,
    latency_us: &Histogram,
) -> (Outcome, Duration) {
    let next = AtomicU64::new(0);
    let interval = if rate > 0.0 {
        Duration::from_secs_f64(1.0 / rate)
    } else {
        Duration::ZERO
    };
    let wall = Instant::now();
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|w| {
                let next = &next;
                scope.spawn(move || {
                    if rate > 0.0 {
                        run_open(
                            addr,
                            items,
                            platform,
                            wall,
                            w as u64,
                            connections as u64,
                            requests,
                            interval,
                            latency_us,
                        )
                    } else {
                        run_closed(addr, items, platform, next, requests, latency_us)
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let merged = Outcome {
        hits: outcomes.iter().map(|o| o.hits).sum(),
        failures: outcomes.iter().map(|o| o.failures).sum(),
    };
    (merged, wall.elapsed())
}

fn main() {
    let mut cli = Args::from_env("redistload");
    if cli.flag("help") {
        println!(
            "redistload — load generator and correctness checker for redistd\n\
             \n\
             usage: redistload [--addr HOST:PORT] [--connections 16] [--requests 256]\n\
             \x20                 [--distinct 16] [--n 12] [--rate REQS_PER_SEC] [--queue-depth N]\n\
             \n\
             --addr A          drive the daemon at A (default: host one in-process)\n\
             --connections N   client threads (default 16, max {MAX_CONNECTIONS})\n\
             --requests N      requests to send in total (default 256)\n\
             --distinct N      distinct traffic matrices, replayed round-robin\n\
             \x20                 (default 16)\n\
             --n N             senders and receivers per matrix (default 12)\n\
             --rate R          open-loop arrivals at R req/s (default: closed loop)\n\
             --queue-depth N   admission queue of a self-hosted server\n\
             \x20                 (default: the connection count)\n\
             \n\
             Every response is byte-compared to a cold local plan; a wrong\n\
             response, an invalid METRICS exposition or a cold cache exits 1."
        );
        return;
    }
    // External daemon to drive; `None` hosts a server in-process.
    let addr: Option<SocketAddr> = cli.value("addr");
    let connections: usize = cli.value("connections").unwrap_or(16);
    let requests: u64 = cli.value("requests").unwrap_or(256);
    let distinct: usize = cli.value("distinct").unwrap_or(16);
    let n: usize = cli.value("n").unwrap_or(12);
    // Open-loop arrival rate in req/s; `0` runs closed-loop.
    let rate: f64 = cli.value("rate").unwrap_or(0.0);
    // Queue depth of a self-hosted server; `0` sizes it to the connection
    // count.
    let queue_depth: usize = cli.value("queue-depth").unwrap_or(0);
    // Zero requests, matrices or nodes cannot make progress, so each is a
    // configuration error, not a degenerate load.
    for (flag, value, why) in [
        ("requests", requests, "an empty run checks nothing"),
        ("distinct", distinct as u64, "at least one matrix is needed"),
        ("n", n as u64, "matrices need at least one node"),
    ] {
        if value == 0 {
            cli.refuse(format!("--{flag} must be at least 1 ({why})"));
        }
    }
    if connections == 0 || connections > MAX_CONNECTIONS {
        cli.refuse(format!(
            "--connections must be in 1..={MAX_CONNECTIONS}, got {connections}"
        ));
    }
    if rate < 0.0 || !rate.is_finite() {
        cli.refuse("--rate must be a finite non-negative req/s");
    }
    cli.finish();

    let platform = Platform::new(n, n, 100.0, 100.0, 400.0);
    eprintln!("redistload: planning {distinct} cold reference instances (n={n})...");
    let items = build_workload(distinct, n, &platform);

    // Self-host unless pointed at an external daemon.
    let hosted = match addr {
        Some(_) => None,
        None => {
            let config = ServerConfig {
                queue_depth: if queue_depth > 0 {
                    queue_depth
                } else {
                    (2 * connections).max(ServerConfig::default().queue_depth)
                },
                ..ServerConfig::default()
            };
            Some(server::start(config).expect("start in-process server"))
        }
    };
    let addr = addr.unwrap_or_else(|| hosted.as_ref().expect("hosted without --addr").addr());

    eprintln!(
        "redistload: {requests} requests, {connections} connections{} against {addr}",
        if rate > 0.0 {
            format!(", open-loop at {rate:.1} req/s")
        } else {
            ", closed-loop".to_string()
        }
    );
    let latency = Histogram::new();
    let (outcome, elapsed) = run_point(
        addr,
        &items,
        &platform,
        connections,
        requests,
        rate,
        &latency,
    );
    let mut failures = outcome.failures;

    // Scrape the server-side view while the daemon is still up.
    match client::fetch_metrics(addr) {
        Ok(text) => {
            if let Err(e) = metrics::validate_exposition(&text) {
                eprintln!("redistload: METRICS exposition invalid: {e}");
                failures += 1;
            }
        }
        Err(e) => {
            eprintln!("redistload: METRICS scrape failed: {e}");
            failures += 1;
        }
    }

    if let Some(h) = hosted {
        let stats = h.shutdown();
        eprintln!(
            "redistload: server saw {} served, {} cache hits, {} rejected",
            stats.served,
            stats.cache.hits,
            stats.rejected_queue_full + stats.rejected_too_large
        );
    }

    println!(
        "redistload: {:.1} req/s, p50 {} us, p99 {} us, hit rate {:.2}",
        requests as f64 / elapsed.as_secs_f64(),
        latency.quantile(0.5),
        latency.quantile(0.99),
        outcome.hits as f64 / requests as f64,
    );

    if failures > 0 {
        eprintln!("redistload: {failures} incorrect responses");
        std::process::exit(1);
    }
    // With requests > distinct every repeat should be a hit; a stone-cold
    // cache means the request key or the LRU is broken.
    if requests > distinct as u64 && outcome.hits == 0 {
        eprintln!("redistload: no cache hits despite repeated matrices");
        std::process::exit(1);
    }
}
