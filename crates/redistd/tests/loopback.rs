//! Loopback integration tests: a real `redistd` server on 127.0.0.1 driven
//! by real TCP clients, covering the acceptance criteria of the serving
//! layer:
//!
//! (a) schedules returned over the wire are byte-identical to a cold local
//!     plan of the same instance, whether served cold or from cache;
//! (b) repeated matrices are served from the plan cache and counted;
//! (c) overload with queue depth 1 produces `Rejected{queue_full}`
//!     responses, not hangs;
//! (d) graceful shutdown drains in-flight requests to their responses;
//! (e) I/O isolation: a slow-reading connection is parked by
//!     per-connection backpressure instead of stalling its I/O thread,
//!     and requests dribbled in one byte at a time still decode.

use kpbs::traffic::TickScale;
use kpbs::{Platform, TrafficMatrix};
use redistd::client::{self, Client};
use redistd::server::{self, ServerConfig};
use redistd::wire::{self, Algo, PlanResponse, RejectReason};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const BETA: f64 = 0.05;

/// Deterministic workload: `distinct` sparse matrices, none empty.
fn make_matrices(distinct: usize, n: usize) -> Vec<TrafficMatrix> {
    (0..distinct)
        .map(|i| {
            let mut t = TrafficMatrix::zeros(n, n);
            let mut state = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for r in 0..n {
                for c in 0..n {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if state % 5 < 2 {
                        t.set(r, c, (1 + state % 32) * 1_000_000);
                    }
                }
            }
            t.set(i % n, (i * 3) % n, 7_000_000);
            t
        })
        .collect()
}

fn cold_plan_bytes(traffic: &TrafficMatrix, platform: &Platform, algo: Algo) -> (Vec<u8>, u64) {
    let (inst, _) = traffic.to_instance(platform, BETA, TickScale::MILLIS);
    let schedule = match algo {
        Algo::Oggp => kpbs::oggp(&inst),
        Algo::Ggp => kpbs::ggp(&inst),
    };
    kpbs::validate::validate(&inst, &schedule).expect("cold plan validates");
    let cost = schedule.cost();
    (wire::encode_schedule(&schedule), cost)
}

/// (a) + (b): 64+ concurrent requests over a handful of distinct matrices;
/// every response must byte-compare equal to the cold plan, and after a
/// warm-up pass every repeat must be a counted cache hit.
#[test]
fn concurrent_requests_are_byte_identical_and_cached() {
    telemetry::counters::enable();
    let handle = server::start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let n = 10;
    let distinct = 4;
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let matrices = make_matrices(distinct, n);
    let expected: Vec<(Vec<u8>, u64)> = matrices
        .iter()
        .map(|t| cold_plan_bytes(t, &platform, Algo::Oggp))
        .collect();

    // Warm-up: plan each distinct matrix once so the concurrent phase is
    // deterministic — every one of its requests must then hit the cache.
    {
        let mut c = Client::connect(addr).unwrap();
        for (i, t) in matrices.iter().enumerate() {
            let req = client::request(i as u64, Algo::Oggp, t, &platform, BETA);
            match c.plan(&req).unwrap() {
                PlanResponse::Ok {
                    cached, schedule, ..
                } => {
                    assert!(!cached, "first sight of matrix {i} cannot be cached");
                    assert_eq!(wire::encode_schedule(&schedule), expected[i].0);
                }
                other => panic!("warm-up {i}: {other:?}"),
            }
        }
    }

    let threads = 8;
    let per_thread = 8; // 64 concurrent requests
    let next_id = AtomicU64::new(1000);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut c = Client::connect(addr).unwrap();
                for j in 0..per_thread {
                    let id = next_id.fetch_add(1, Ordering::Relaxed);
                    let which = (id as usize + j) % distinct;
                    let req = client::request(id, Algo::Oggp, &matrices[which], &platform, BETA);
                    match c.plan(&req).unwrap() {
                        PlanResponse::Ok {
                            request_id,
                            cached,
                            schedule,
                            cost,
                            work,
                            ..
                        } => {
                            assert_eq!(request_id, id);
                            assert!(cached, "request {id} should be a cache hit after warm-up");
                            assert_eq!(
                                wire::encode_schedule(&schedule),
                                expected[which].0,
                                "request {id}: cached schedule differs from cold plan"
                            );
                            assert_eq!(cost, expected[which].1);
                            assert!(
                                work.iter().all(|&w| w == 0),
                                "cache hits report a zero work delta"
                            );
                        }
                        other => panic!("request {id}: {other:?}"),
                    }
                }
            });
        }
    });

    let stats = handle.shutdown();
    let total = (threads * per_thread + distinct) as u64;
    assert_eq!(stats.served, total);
    assert_eq!(stats.cache.hits, (threads * per_thread) as u64);
    assert_eq!(stats.cache.misses, distinct as u64);
    assert_eq!(stats.rejected_queue_full, 0);
    assert_eq!(stats.errors, 0);
}

/// GGP and OGGP cache entries must not collide: the algorithm tag is part
/// of the cache key, so the same matrix planned under both returns each
/// algorithm's own schedule.
#[test]
fn cache_keys_separate_algorithms() {
    let handle = server::start(ServerConfig::default()).unwrap();
    let n = 8;
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let traffic = &make_matrices(1, n)[0];
    let (oggp_bytes, _) = cold_plan_bytes(traffic, &platform, Algo::Oggp);
    let (ggp_bytes, _) = cold_plan_bytes(traffic, &platform, Algo::Ggp);

    let mut c = Client::connect(handle.addr()).unwrap();
    for (id, algo, want) in [(1, Algo::Oggp, &oggp_bytes), (2, Algo::Ggp, &ggp_bytes)] {
        match c
            .plan(&client::request(id, algo, traffic, &platform, BETA))
            .unwrap()
        {
            PlanResponse::Ok {
                cached, schedule, ..
            } => {
                assert!(!cached);
                assert_eq!(&wire::encode_schedule(&schedule), want);
            }
            other => panic!("{other:?}"),
        }
    }
    handle.shutdown();
}

/// (c) overload: one slow worker, queue depth 1, a burst of concurrent
/// requests. The surplus must be answered `Rejected{queue_full}` promptly —
/// nothing may hang or be silently dropped.
#[test]
#[ignore = "wall-clock race under load; run explicitly (scripts/check.sh does)"]
fn overload_rejects_rather_than_hangs() {
    let handle = server::start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        worker_think_ms: 150,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let n = 6;
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let matrices = make_matrices(8, n);

    let start = Instant::now();
    let results: Vec<PlanResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let m = &matrices[i];
                let platform = &platform;
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    c.plan(&client::request(i as u64, Algo::Oggp, m, platform, BETA))
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();

    let ok = results
        .iter()
        .filter(|r| matches!(r, PlanResponse::Ok { .. }))
        .count();
    let rejected = results
        .iter()
        .filter(|r| {
            matches!(
                r,
                PlanResponse::Rejected {
                    reason: RejectReason::QueueFull,
                    ..
                }
            )
        })
        .count();
    assert_eq!(ok + rejected, 8, "every request gets exactly one answer");
    assert!(ok >= 1, "the in-service request must complete");
    assert!(
        rejected >= 5,
        "burst past depth-1 queue must be shed, got {rejected}"
    );
    // 8 sequential 150 ms plans would take 1.2 s; shedding keeps it well
    // under that even on a loaded CI machine.
    assert!(
        elapsed < Duration::from_secs(1),
        "rejections must be immediate, took {elapsed:?}"
    );

    let stats = handle.shutdown();
    assert_eq!(stats.rejected_queue_full, rejected as u64);
    assert_eq!(stats.served, ok as u64);
}

/// Oversized matrices are refused at admission with `matrix_too_large`.
#[test]
fn oversized_matrix_is_rejected() {
    let handle = server::start(ServerConfig {
        max_cells: 16,
        ..ServerConfig::default()
    })
    .unwrap();
    let n = 6; // 36 cells > 16
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let traffic = &make_matrices(1, n)[0];
    let mut c = Client::connect(handle.addr()).unwrap();
    match c
        .plan(&client::request(9, Algo::Oggp, traffic, &platform, BETA))
        .unwrap()
    {
        PlanResponse::Rejected {
            request_id,
            reason: RejectReason::MatrixTooLarge,
        } => assert_eq!(request_id, 9),
        other => panic!("{other:?}"),
    }
    let stats = handle.shutdown();
    assert_eq!(stats.rejected_too_large, 1);
    assert_eq!(stats.served, 0);
}

/// (d) graceful shutdown: a request in flight on a slow worker when
/// shutdown begins still receives its (correct) response.
#[test]
#[ignore = "wall-clock race under load; run explicitly (scripts/check.sh does)"]
fn shutdown_drains_in_flight_requests() {
    let handle = server::start(ServerConfig {
        workers: 1,
        worker_think_ms: 300,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let n = 6;
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let traffic = make_matrices(1, n).remove(0);
    let (expected_bytes, _) = cold_plan_bytes(&traffic, &platform, Algo::Oggp);

    let client_thread = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.plan(&client::request(42, Algo::Oggp, &traffic, &platform, BETA))
            .unwrap()
    });
    // Let the request reach the worker's think-sleep, then shut down while
    // it is mid-plan.
    std::thread::sleep(Duration::from_millis(100));
    let stats = handle.shutdown();

    match client_thread.join().unwrap() {
        PlanResponse::Ok {
            request_id,
            schedule,
            ..
        } => {
            assert_eq!(request_id, 42);
            assert_eq!(wire::encode_schedule(&schedule), expected_bytes);
        }
        other => panic!("in-flight request lost in shutdown: {other:?}"),
    }
    assert_eq!(stats.served, 1, "drained request is counted");
}

/// Live server state reads back from `METRICS` and from the typed
/// snapshot: served requests, hits and misses, hit rate, an empty queue,
/// ordered service quantiles and the queue-wait summary.
#[test]
fn metrics_and_stats_report_served_state() {
    let handle = server::start(ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let n = 6;
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let traffic = &make_matrices(1, n)[0];

    let mut c = Client::connect(addr).unwrap();
    for id in 0..3 {
        let resp = c.plan(&client::request(id, Algo::Oggp, traffic, &platform, BETA));
        assert!(matches!(resp, Ok(PlanResponse::Ok { .. })));
    }
    let text = client::fetch_metrics(addr).unwrap();
    let sample = |name: &str, labels: &[(&str, &str)]| {
        telemetry::metrics::find_sample(&text, name, labels)
            .unwrap_or_else(|| panic!("sample {name} {labels:?} missing"))
    };
    let outcome = |o| sample("redistd_requests_total", &[("outcome", o)]);
    assert_eq!(outcome("planned") + outcome("cache_hit"), 3.0);
    assert_eq!(sample("redistd_cache_hits", &[]), 2.0);
    assert_eq!(sample("redistd_cache_misses", &[]), 1.0);
    assert_eq!(outcome("shed_queue_full"), 0.0);
    assert_eq!(sample("redistd_queue_depth", &[]), 0.0);
    // Service quantiles are ordered and non-zero after three served plans.
    let p50 = sample("redistd_service_us", &[("quantile", "0.5")]);
    let p99 = sample("redistd_service_us", &[("quantile", "0.99")]);
    assert!(p50 > 0.0, "p50 of served requests is positive");
    assert!(p99 >= p50, "quantiles ordered: p99 {p99} >= p50 {p50}");
    assert!(sample("redistd_service_us_sum", &[]) > 0.0);
    // Queue wait is measured admission -> worker pickup; on an idle server
    // the legs exist even when the waits round to zero.
    sample("redistd_queue_wait_us", &[("quantile", "0.5")]);
    sample("redistd_queue_wait_us", &[("quantile", "0.99")]);
    sample("redistd_queue_wait_us_sum", &[]);

    // The typed snapshot reads the same handles.
    let stats = handle.stats();
    assert_eq!(stats.served, 3);
    assert_eq!((stats.cache.hits, stats.cache.misses), (2, 1));
    assert!((stats.cache.hit_rate() - 2.0 / 3.0).abs() < 1e-3);
    assert_eq!((stats.rejected_queue_full, stats.queue_depth), (0, 0));
    assert!(stats.p50_us > 0 && stats.p99_us >= stats.p50_us);
    assert!(stats.mean_us > 0);
    assert!(stats.queue_wait_p99_us >= stats.queue_wait_p50_us);
    handle.shutdown();
}

/// `STATS` is no admin command: a connection that sends it is closed
/// without an answer (its first four bytes read as an oversized length),
/// and the daemon keeps serving the next client.
#[test]
fn retired_stats_command_is_closed_unanswered() {
    use std::io::{Read, Write};
    let handle = server::start(ServerConfig::default()).unwrap();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(b"STATS\n").unwrap();
    let mut answer = Vec::new();
    stream
        .read_to_end(&mut answer)
        .expect("the server closes the connection");
    assert!(answer.is_empty(), "answered: {answer:?}");

    let n = 6;
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let traffic = &make_matrices(1, n)[0];
    let mut c = Client::connect(handle.addr()).unwrap();
    let resp = c.plan(&client::request(1, Algo::Oggp, traffic, &platform, BETA));
    assert!(matches!(resp, Ok(PlanResponse::Ok { .. })), "{resp:?}");
    let stats = handle.shutdown();
    assert_eq!((stats.served, stats.errors), (1, 0));
}

/// The `METRICS` admin command renders well-formed Prometheus text
/// exposition whose values agree with the traffic just served.
#[test]
fn metrics_command_exposes_live_registry() {
    let handle = server::start(ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let n = 6;
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let traffic = &make_matrices(1, n)[0];

    let mut c = Client::connect(addr).unwrap();
    for id in 0..3 {
        let resp = c.plan(&client::request(id, Algo::Oggp, traffic, &platform, BETA));
        assert!(matches!(resp, Ok(PlanResponse::Ok { .. })));
    }

    let text = client::fetch_metrics(addr).unwrap();
    telemetry::metrics::validate_exposition(&text).expect("exposition well-formed");
    let sample = |name: &str, labels: &[(&str, &str)]| {
        telemetry::metrics::find_sample(&text, name, labels)
            .unwrap_or_else(|| panic!("sample {name} {labels:?} missing"))
    };
    assert_eq!(sample("redistd_admissions_total", &[]), 3.0);
    assert_eq!(
        sample("redistd_requests_total", &[("outcome", "planned")]),
        1.0
    );
    assert_eq!(
        sample("redistd_requests_total", &[("outcome", "cache_hit")]),
        2.0
    );
    assert_eq!(
        sample("redistd_requests_total", &[("outcome", "shed_queue_full")]),
        0.0
    );
    assert_eq!(sample("redistd_cache_entries", &[]), 1.0);
    assert_eq!(sample("redistd_service_us_count", &[]), 3.0);
    // Only the miss queued; the two hits were answered at admission.
    assert_eq!(sample("redistd_queue_wait_us_count", &[]), 1.0);
    assert!(sample("redistd_service_us", &[("quantile", "0.99")]) > 0.0);
    // Quantile legs exist for the queue-wait summary too (values may round
    // to zero on an idle server).
    telemetry::metrics::find_sample(&text, "redistd_queue_wait_us", &[("quantile", "0.5")])
        .expect("queue-wait p50 exported");
    handle.shutdown();
}

/// Tentpole acceptance: the `server_id` carried on an `Ok` response is
/// the server-minted request id, and it joins the response to exactly one
/// flight record holding that request's admission-to-reply story.
#[test]
fn flight_records_correlate_with_server_ids() {
    let handle = server::start(ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let n = 6;
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let traffic = &make_matrices(1, n)[0];

    let mut c = Client::connect(addr).unwrap();
    let mut seen: Vec<(u64, u64, bool)> = Vec::new(); // (client id, rid, cached)
    for id in 10..14 {
        match c
            .plan(&client::request(id, Algo::Oggp, traffic, &platform, BETA))
            .unwrap()
        {
            PlanResponse::Ok {
                request_id,
                cached,
                server_id,
                ..
            } => {
                assert_eq!(request_id, id);
                assert_ne!(server_id, 0, "every admitted request gets a rid");
                seen.push((id, server_id, cached));
            }
            other => panic!("{other:?}"),
        }
    }
    let rids: std::collections::HashSet<u64> = seen.iter().map(|&(_, rid, _)| rid).collect();
    assert_eq!(rids.len(), seen.len(), "rids are unique");

    let dump = client::fetch_flight(addr).unwrap();
    let header = dump.lines().next().unwrap();
    assert!(header.starts_with("redistd flight records=4"), "{header}");
    assert!(header.ends_with("total=4"), "{header}");
    for &(id, rid, cached) in &seen {
        let line = dump
            .lines()
            .find(|l| l.contains(&format!(" rid={rid} ")))
            .unwrap_or_else(|| panic!("no flight record for rid {rid}"));
        assert!(line.contains(&format!("client_id={id} ")), "{line}");
        let outcome = if cached { "cache_hit" } else { "planned" };
        assert!(line.contains(&format!("outcome={outcome} ")), "{line}");
        assert!(line.contains(&format!("n1={n} n2={n} ")), "{line}");
        if !cached {
            // A cold plan records its planning time; a hit records zero.
            let plan_us: u64 = line
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("plan_us="))
                .unwrap()
                .parse()
                .unwrap();
            assert!(plan_us > 0, "cold plan has a timed plan phase: {line}");
        }
    }
    handle.shutdown();
}

/// Shed and malformed requests leave flight records too, and the ring
/// survives wraparound keeping the newest entries.
#[test]
fn flight_ring_records_sheds_and_wraps() {
    let handle = server::start(ServerConfig {
        max_cells: 16,
        flight_capacity: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let n = 6; // 36 cells > 16 -> every request is shed
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let traffic = &make_matrices(1, n)[0];

    let mut c = Client::connect(addr).unwrap();
    for id in 0..6 {
        let resp = c
            .plan(&client::request(id, Algo::Oggp, traffic, &platform, BETA))
            .unwrap();
        assert!(matches!(resp, PlanResponse::Rejected { .. }));
    }
    let dump = client::fetch_flight(addr).unwrap();
    let header = dump.lines().next().unwrap();
    assert!(
        header.starts_with("redistd flight records=4 capacity=4 total=6"),
        "{header}"
    );
    let body: Vec<&str> = dump.lines().skip(1).collect();
    assert_eq!(body.len(), 4, "ring keeps the newest capacity records");
    for line in &body {
        assert!(line.contains("outcome=shed_too_large "), "{line}");
        assert!(line.contains("worker=-1 "), "never reached a worker");
    }
    // Oldest two records (client ids 0 and 1) were overwritten.
    assert!(!dump.contains("client_id=0 "), "{dump}");
    assert!(!dump.contains("client_id=1 "), "{dump}");
    assert!(dump.contains("client_id=5 "), "{dump}");
    handle.shutdown();
}

/// A malformed-but-headed frame for connection-level tests: valid magic,
/// version, kind and request id followed by garbage, so the server can
/// recover the id for its error response.
fn malformed_payload(request_id: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&wire::MAGIC);
    payload.extend_from_slice(&wire::VERSION.to_be_bytes());
    payload.push(0);
    payload.extend_from_slice(&request_id.to_be_bytes());
    payload.extend_from_slice(&[0xAB; 7]);
    let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(&payload);
    framed
}

/// (e) slow-reader isolation: connection A floods requests far faster than
/// the (deliberately slowed) workers can answer and reads nothing back, so
/// its decoded-but-unserved frames pile up until the per-connection
/// pending bound parks its reads. Meanwhile connection B's requests on the
/// same server must keep completing promptly, and every one of A's
/// responses eventually arrives in order.
#[test]
fn slow_reader_cannot_stall_other_connections() {
    let handle = server::start(ServerConfig {
        // A tiny pending ring + a slow worker make the pile-up (and the
        // backpressure transition) deterministic: the bound trips on
        // decoded frames, independent of kernel socket buffer sizes.
        pending_limit: 4,
        worker_think_ms: 10,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let n = 6;
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let traffic = &make_matrices(1, n)[0];

    const FLOOD: u64 = 100;
    let mut slow = std::net::TcpStream::connect(addr).unwrap();
    slow.set_nodelay(true).unwrap();
    let mut slow_writer = slow.try_clone().unwrap();
    let flood_traffic = traffic.clone();
    let flood_platform = platform;
    let writer = std::thread::spawn(move || {
        for id in 0..FLOOD {
            let req = client::request(id, Algo::Oggp, &flood_traffic, &flood_platform, BETA);
            wire::write_all(&mut slow_writer, &wire::encode_request(&req)).unwrap();
        }
    });
    writer.join().unwrap(); // ~100 small frames: fits kernel buffers, never blocks

    // B's closed-loop requests stay fast while A's backlog sits parked: A
    // holds at most one worker at a time, not a whole I/O thread.
    let start = Instant::now();
    let mut b = Client::connect(addr).unwrap();
    for id in 1000..1030 {
        match b
            .plan(&client::request(id, Algo::Oggp, traffic, &platform, BETA))
            .unwrap()
        {
            PlanResponse::Ok { request_id, .. } => assert_eq!(request_id, id),
            other => panic!("B's request {id}: {other:?}"),
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "B stalled behind the slow reader: {:?}",
        start.elapsed()
    );

    // Backpressure must have parked A's reads at least once.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let text = client::fetch_metrics(addr).unwrap();
        let parked = telemetry::metrics::find_sample(&text, "redistd_io_backpressure_total", &[])
            .unwrap_or(0.0);
        if parked > 0.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backpressure never engaged while {FLOOD} requests sat pending"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // A finally reads: all responses arrive, in order, none dropped.
    for id in 0..FLOOD {
        let frame = wire::read_frame(&mut slow).unwrap();
        match wire::decode_response(&frame).unwrap() {
            PlanResponse::Ok { request_id, .. } => assert_eq!(request_id, id),
            other => panic!("slow reader response {id}: {other:?}"),
        }
    }
    drop(slow);
    handle.shutdown();
}

/// (e) a request dribbled in one byte at a time decodes and plans exactly
/// like one delivered whole — the resumable decoder under a real socket.
#[test]
fn request_split_into_single_bytes_is_served() {
    let handle = server::start(ServerConfig::default()).unwrap();
    let n = 6;
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let traffic = &make_matrices(1, n)[0];
    let (expected_bytes, _) = cold_plan_bytes(traffic, &platform, Algo::Oggp);

    let req = client::request(11, Algo::Oggp, traffic, &platform, BETA);
    let encoded = wire::encode_request(&req);
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    for byte in &encoded {
        wire::write_all(&mut stream, std::slice::from_ref(byte)).unwrap();
        // A breather every few bytes keeps loopback from coalescing the
        // whole message into one segment (correct either way).
        if byte.is_multiple_of(16) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let frame = wire::read_frame(&mut stream).unwrap();
    match wire::decode_response(&frame).unwrap() {
        PlanResponse::Ok {
            request_id,
            schedule,
            ..
        } => {
            assert_eq!(request_id, 11);
            assert_eq!(wire::encode_schedule(&schedule), expected_bytes);
        }
        other => panic!("{other:?}"),
    }
    let stats = handle.shutdown();
    assert_eq!(stats.served, 1);
}

/// The open-connection gauge counts live connections: the idle client
/// and the `METRICS` connection itself while it renders.
#[test]
fn metrics_report_open_connections() {
    let handle = server::start(ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let n = 6;
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let traffic = &make_matrices(1, n)[0];

    // A completed request guarantees this connection is fully registered
    // before the gauge is read.
    let mut c = Client::connect(addr).unwrap();
    let resp = c.plan(&client::request(0, Algo::Oggp, traffic, &platform, BETA));
    assert!(matches!(resp, Ok(PlanResponse::Ok { .. })));

    let text = client::fetch_metrics(addr).unwrap();
    let sample = |name: &str| {
        telemetry::metrics::find_sample(&text, name, &[])
            .unwrap_or_else(|| panic!("sample {name} missing"))
    };
    let open = sample("redistd_connections_open");
    assert!(open >= 2.0, "connections_open {open}");
    assert!(sample("redistd_accepts_total") >= 2.0);
    assert!(handle.stats().connections_open >= 1);
    drop(c);
    handle.shutdown();
}

/// Malformed frames get a v3 error response (with the request id when it
/// can be recovered) instead of a dropped connection: a garbage body, and a
/// valid plan stamped with a retired protocol version.
#[test]
fn malformed_frame_gets_error_response() {
    let handle = server::start(ServerConfig::default()).unwrap();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let platform = Platform::new(4, 4, 100.0, 100.0, 300.0);
    let mut v1_plan = wire::encode_request(&client::request(
        78,
        Algo::Oggp,
        &make_matrices(1, 4)[0],
        &platform,
        BETA,
    ));
    // The version follows the length prefix and the magic.
    v1_plan[8..10].copy_from_slice(&1u16.to_be_bytes());
    for (frame, id, detail) in [
        (malformed_payload(77), 77, "unknown algorithm"),
        (v1_plan, 78, "unsupported version 1"),
    ] {
        wire::write_all(&mut stream, &frame).unwrap();
        let answer = wire::read_frame(&mut stream).unwrap();
        assert_eq!(answer[4..6], wire::VERSION.to_be_bytes(), "answered in v3");
        match wire::decode_response(&answer).unwrap() {
            PlanResponse::Error {
                request_id,
                message,
            } => {
                assert_eq!(request_id, id);
                assert!(message.contains(detail), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }
    let stats = handle.shutdown();
    assert_eq!(stats.errors, 2);
}

/// Client-side twin of the server's per-delta byte→tick conversion, used
/// to drive a local mirror [`kpbs::DeltaPlanner`] through the same edits
/// the wire carries.
fn convert_delta(platform: &Platform, d: &wire::WireDelta) -> kpbs::MatrixDelta {
    match *d {
        wire::WireDelta::SetCell {
            sender,
            receiver,
            bytes,
        } => kpbs::MatrixDelta::Set {
            sender: sender as usize,
            receiver: receiver as usize,
            ticks: kpbs::traffic::message_ticks(platform, TickScale::MILLIS, bytes),
        },
        wire::WireDelta::GrowNodes { senders, receivers } => kpbs::MatrixDelta::GrowNodes {
            senders: senders as usize,
            receivers: receivers as usize,
        },
        wire::WireDelta::DropSender(i) => kpbs::MatrixDelta::DropSender(i as usize),
        wire::WireDelta::DropReceiver(j) => kpbs::MatrixDelta::DropReceiver(j as usize),
    }
}

/// Tentpole acceptance: a live session survives a streamed delta campaign
/// with zero byte-compare failures. The planner is deterministic, so a
/// local mirror `DeltaPlanner` fed the same edits must produce
/// byte-identical schedules, costs, generations and repair levels at every
/// step.
#[test]
fn session_campaign_on_default_core() {
    telemetry::counters::enable();
    let handle = server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let n = 8usize;
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let traffic = make_matrices(1, n).remove(0);
    let (inst, _) = traffic.to_instance(&platform, BETA, TickScale::MILLIS);
    let mut mirror = kpbs::DeltaPlanner::new(inst);

    let mut c = Client::connect(addr).unwrap();
    let session_id = match c
        .session(&client::session_open(1, &traffic, &platform, BETA))
        .unwrap()
    {
        PlanResponse::Session {
            session_id,
            generation,
            level,
            schedule,
            cost,
            ..
        } => {
            assert_eq!(generation, 0);
            assert_eq!(level, wire::SessionLevel::Opened);
            assert_eq!(
                wire::encode_schedule(&schedule),
                wire::encode_schedule(mirror.schedule())
            );
            assert_eq!(cost, mirror.schedule().cost());
            session_id
        }
        other => panic!("open: {other:?}"),
    };
    assert_ne!(session_id, 0);

    // A deterministic streamed campaign touching every delta kind:
    // resizes, cancellations, node drops, and a mid-stream grow addressed
    // by later cells.
    let mut batches: Vec<Vec<wire::WireDelta>> = Vec::new();
    let mut state = 0xabcd_ef01_2345_6789u64;
    for round in 0u64..16 {
        let mut batch = Vec::new();
        for _ in 0..=(round % 3) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let sender = (state % n as u64) as u32;
            let receiver = ((state >> 8) % n as u64) as u32;
            let bytes = if state.is_multiple_of(4) {
                0
            } else {
                (1 + state % 24) * 1_000_000
            };
            batch.push(wire::WireDelta::SetCell {
                sender,
                receiver,
                bytes,
            });
        }
        if round == 5 {
            batch.push(wire::WireDelta::DropSender(2));
        }
        if round == 9 {
            batch.push(wire::WireDelta::DropReceiver(4));
        }
        if round == 11 {
            batch.push(wire::WireDelta::GrowNodes {
                senders: 1,
                receivers: 1,
            });
            batch.push(wire::WireDelta::SetCell {
                sender: n as u32,
                receiver: n as u32,
                bytes: 9_000_000,
            });
        }
        batches.push(batch);
    }

    let mut levels = std::collections::HashSet::new();
    for (k, batch) in batches.iter().enumerate() {
        let local: Vec<kpbs::MatrixDelta> =
            batch.iter().map(|d| convert_delta(&platform, d)).collect();
        let want = mirror.replan(&local);
        match c
            .session(&client::session_delta(
                100 + k as u64,
                session_id,
                batch.clone(),
            ))
            .unwrap()
        {
            PlanResponse::Session {
                session_id: sid,
                generation,
                level,
                schedule,
                cost,
                lower_bound,
                ..
            } => {
                assert_eq!(sid, session_id);
                assert_eq!(generation, want.generation, "round {k}");
                assert_eq!(level.label(), want.level.label(), "round {k}");
                assert_eq!(
                    wire::encode_schedule(&schedule),
                    wire::encode_schedule(mirror.schedule()),
                    "round {k}: patched schedule must byte-equal the mirror"
                );
                assert_eq!(cost, want.cost, "round {k}");
                assert_eq!(lower_bound, want.lower_bound, "round {k}");
                levels.insert(level.label());
            }
            other => panic!("delta {k}: {other:?}"),
        }
    }
    assert!(
        levels.len() >= 2,
        "campaign should exercise multiple repair levels, saw {levels:?}"
    );

    // COMMIT answers the current plan and caches nothing; CLOSE frees the
    // slot; a closed id stops resolving.
    match c.session(&client::session_commit(900, session_id)).unwrap() {
        PlanResponse::Session {
            level, generation, ..
        } => {
            assert_eq!(level, wire::SessionLevel::Committed);
            assert_eq!(generation, mirror.generation());
        }
        other => panic!("commit: {other:?}"),
    }
    match c.session(&client::session_close(901, session_id)).unwrap() {
        PlanResponse::Session { level, .. } => assert_eq!(level, wire::SessionLevel::Closed),
        other => panic!("close: {other:?}"),
    }
    match c
        .session(&client::session_delta(902, session_id, Vec::new()))
        .unwrap()
    {
        PlanResponse::SessionRejected { reason, .. } => {
            assert_eq!(reason, wire::SessionRejectReason::UnknownSession)
        }
        other => panic!("stale delta: {other:?}"),
    }

    let stats = handle.shutdown();
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_closed, 1);
    assert_eq!(stats.sessions_open, 0);
    assert_eq!(stats.sessions_rejected, 1, "only the stale delta");
    assert_eq!(
        stats.session_repairs + stats.session_repeels + stats.session_colds,
        batches.len() as u64
    );
    assert_eq!(stats.sessions_committed, 1);
    assert_eq!(stats.cache.len, 0, "a commit inserts no cache entry");
}

/// The session table is a backpressure boundary: `OPEN` past
/// `max_sessions` is refused with `table_full`, and a close frees the
/// slot for the next open.
#[test]
fn session_table_full_is_backpressure_not_failure() {
    let handle = server::start(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let n = 6;
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let traffic = &make_matrices(1, n)[0];
    let mut c = Client::connect(handle.addr()).unwrap();

    let open = |c: &mut Client, id: u64| {
        c.session(&client::session_open(id, traffic, &platform, BETA))
            .unwrap()
    };
    let first = match open(&mut c, 1) {
        PlanResponse::Session { session_id, .. } => session_id,
        other => panic!("{other:?}"),
    };
    match open(&mut c, 2) {
        PlanResponse::SessionRejected {
            session_id, reason, ..
        } => {
            assert_eq!(session_id, 0);
            assert_eq!(reason, wire::SessionRejectReason::TableFull);
        }
        other => panic!("{other:?}"),
    }
    match c.session(&client::session_close(3, first)).unwrap() {
        PlanResponse::Session { level, .. } => assert_eq!(level, wire::SessionLevel::Closed),
        other => panic!("{other:?}"),
    }
    match open(&mut c, 4) {
        PlanResponse::Session { session_id, .. } => {
            assert!(session_id > first, "ids are never recycled")
        }
        other => panic!("{other:?}"),
    }
    let stats = handle.shutdown();
    assert_eq!(stats.sessions_opened, 2);
    assert_eq!(stats.sessions_rejected, 1);
    assert_eq!(stats.sessions_open, 1);
}

/// Malformed session deltas (out-of-range nodes) are answered as protocol
/// errors and leave the session fully usable — the planner never sees
/// them.
#[test]
fn out_of_range_deltas_leave_the_session_intact() {
    let handle = server::start(ServerConfig::default()).unwrap();
    let n = 6;
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let traffic = &make_matrices(1, n)[0];
    let mut c = Client::connect(handle.addr()).unwrap();

    let sid = match c
        .session(&client::session_open(1, traffic, &platform, BETA))
        .unwrap()
    {
        PlanResponse::Session { session_id, .. } => session_id,
        other => panic!("{other:?}"),
    };
    match c
        .session(&client::session_delta(
            2,
            sid,
            vec![wire::WireDelta::SetCell {
                sender: n as u32, // one past the end
                receiver: 0,
                bytes: 1_000_000,
            }],
        ))
        .unwrap()
    {
        PlanResponse::Error { message, .. } => {
            assert!(message.contains("out of range"), "{message}")
        }
        other => panic!("{other:?}"),
    }
    // The session still answers: generation is untouched by the bad batch.
    match c
        .session(&client::session_delta(
            3,
            sid,
            vec![wire::WireDelta::SetCell {
                sender: 0,
                receiver: 0,
                bytes: 2_000_000,
            }],
        ))
        .unwrap()
    {
        PlanResponse::Session { generation, .. } => assert_eq!(generation, 1),
        other => panic!("{other:?}"),
    }
    handle.shutdown();
}
