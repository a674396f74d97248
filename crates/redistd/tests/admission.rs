//! Loopback tests of the admission-time hit path:
//! a cached plan is answered where the frame is decoded — byte-identical
//! to the one `Ok` encoder, in request order, past a full queue, with
//! exactly one flight record — and nothing a socket can send on that path
//! (or into a session) takes an I/O thread or a worker down.

use kpbs::traffic::TickScale;
use kpbs::{Platform, TrafficMatrix};
use redistd::client::{self, Client};
use redistd::server::{self, ServerConfig, ServerHandle};
use redistd::wire::{
    self, Algo, CsrMatrix, PlanRequest, PlanResponse, RejectReason, WireDelta, WirePlatform,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use telemetry::counters::COUNTER_COUNT;

const BETA: f64 = 0.05;
const N: usize = 6;

fn platform() -> Platform {
    Platform::new(N, N, 100.0, 100.0, 300.0)
}

/// The `i`-th of a family of distinct sparse matrices, none empty.
fn matrix(i: usize) -> TrafficMatrix {
    let mut t = TrafficMatrix::zeros(N, N);
    let mut state = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for r in 0..N {
        for c in 0..N {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state % 5 < 2 {
                t.set(r, c, (1 + state % 32) * 1_000_000);
            }
        }
    }
    t.set(i % N, (i * 3) % N, 7_000_000);
    t
}

fn request(id: u64, which: usize) -> PlanRequest {
    client::request(id, Algo::Oggp, &matrix(which), &platform(), BETA)
}

fn start(config: ServerConfig) -> ServerHandle {
    server::start(config).unwrap()
}

/// A raw connection with a read timeout, so a dead server thread fails the
/// test instead of hanging it.
fn raw(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
}

fn read_response(stream: &mut TcpStream) -> (Vec<u8>, PlanResponse) {
    let payload = wire::read_frame(stream).expect("a response frame");
    let resp = wire::decode_response(&payload).expect("a decodable response");
    (payload, resp)
}

/// Spins until `ready` holds (the conditions polled here are reached in
/// microseconds; the bound only turns a lost wake-up into a failure).
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Requests the workers have picked up so far.
fn picked_up(handle: &ServerHandle) -> f64 {
    telemetry::metrics::find_sample(&handle.metrics_text(), "redistd_queue_wait_us_count", &[])
        .expect("queue-wait summary exported")
}

/// A hit's frame is byte-for-byte what `wire::encode_response` makes of
/// the cold plan marked `cached` with a zero work delta.
#[test]
fn hit_frames_are_byte_identical_to_the_ok_encoder() {
    let (inst, _) = matrix(0).to_instance(&platform(), BETA, TickScale::MILLIS);
    let cold = kpbs::oggp(&inst);
    let handle = start(ServerConfig::default());
    let mut stream = raw(&handle);
    stream
        .write_all(&wire::encode_request(&request(1, 0)))
        .unwrap();
    match read_response(&mut stream).1 {
        PlanResponse::Ok { cached, .. } => assert!(!cached, "first sight plans"),
        other => panic!("{other:?}"),
    }
    let req = request(100, 0);
    stream.write_all(&wire::encode_request(&req)).unwrap();
    let (payload, resp) = read_response(&mut stream);
    let PlanResponse::Ok { server_id, .. } = resp else {
        panic!("{resp:?}");
    };
    assert_ne!(server_id, 0, "a hit carries its server id");
    let expected = wire::encode_response(
        &PlanResponse::Ok {
            request_id: req.request_id,
            cached: true,
            schedule: cold.clone(),
            cost: cold.cost(),
            lower_bound: kpbs::lower_bound(&inst),
            work: [0; COUNTER_COUNT],
            server_id,
        },
        wire::VERSION,
    );
    assert_eq!(payload, &expected[4..], "hit frame");
    let stats = handle.shutdown();
    assert_eq!((stats.cache.hits, stats.cache.misses), (1, 1));
}

/// A pipelined `[miss, hit, hit]` on one connection: the hits could be
/// answered at once, but responses must come back in request order behind
/// the (deliberately slow) miss.
#[test]
fn pipelined_miss_then_hits_keep_request_order() {
    let handle = start(ServerConfig {
        worker_think_ms: 100,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(matches!(
        c.plan(&request(1, 0)),
        Ok(PlanResponse::Ok { .. })
    ));

    let mut stream = raw(&handle);
    let mut burst = wire::encode_request(&request(10, 1)); // never seen
    burst.extend(wire::encode_request(&request(11, 0)));
    burst.extend(wire::encode_request(&request(12, 0)));
    stream.write_all(&burst).unwrap();
    let got: Vec<(u64, bool)> = (0..3)
        .map(|_| match read_response(&mut stream).1 {
            PlanResponse::Ok {
                request_id, cached, ..
            } => (request_id, cached),
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(got, [(10, false), (11, true), (12, true)]);
    handle.shutdown();
}

/// Hits bypass a full queue: with the only worker busy and the depth-1
/// queue occupied, an unseen matrix is shed `queue_full` while a cached one
/// is answered `cached: true` from the admission path.
#[test]
fn cached_matrix_is_served_past_a_full_queue() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        worker_think_ms: 700,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(matches!(
        c.plan(&request(1, 0)),
        Ok(PlanResponse::Ok { .. })
    ));
    assert_eq!(picked_up(&handle), 1.0);

    std::thread::scope(|scope| {
        // Occupy the worker, then the queue's only slot.
        let busy = scope.spawn(|| Client::connect(handle.addr()).unwrap().plan(&request(2, 1)));
        wait_until("the worker picked the request up", || {
            picked_up(&handle) == 2.0
        });
        let queued = scope.spawn(|| Client::connect(handle.addr()).unwrap().plan(&request(3, 2)));
        wait_until("the queue is full", || handle.stats().queue_depth == 1);

        match c.plan(&request(4, 3)).unwrap() {
            PlanResponse::Rejected { reason, .. } => {
                assert_eq!(reason, RejectReason::QueueFull)
            }
            other => panic!("unseen matrix past a full queue: {other:?}"),
        }
        match c.plan(&request(5, 0)).unwrap() {
            PlanResponse::Ok { cached, .. } => assert!(cached),
            other => panic!("cached matrix past a full queue: {other:?}"),
        }
        assert_eq!(
            handle.stats().queue_depth,
            1,
            "the queue stayed full throughout"
        );
        for pending in [busy, queued] {
            assert!(matches!(
                pending.join().unwrap(),
                Ok(PlanResponse::Ok { cached: false, .. })
            ));
        }
    });
    let stats = handle.shutdown();
    assert_eq!(stats.rejected_queue_full, 1);
    assert_eq!(stats.served, 4);
}

/// Every hit leaves exactly one flight record, keyed by the `server_id`
/// its response carried, marked answered-at-admission (no worker), while
/// queue wait samples only the request that queued.
#[test]
fn each_hit_leaves_one_flight_record_under_its_server_id() {
    let handle = start(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    let mut hits = Vec::new();
    for id in 0..5 {
        match c.plan(&request(id, 0)).unwrap() {
            PlanResponse::Ok {
                cached, server_id, ..
            } => {
                assert_eq!(cached, id > 0);
                if cached {
                    hits.push((id, server_id));
                }
            }
            other => panic!("{other:?}"),
        }
    }
    let dump = handle.flight_text();
    assert!(dump.lines().next().unwrap().ends_with("total=5"), "{dump}");
    for (id, rid) in hits {
        let lines: Vec<&str> = dump
            .lines()
            .filter(|l| l.contains(&format!(" rid={rid} ")))
            .collect();
        assert_eq!(lines.len(), 1, "records for rid {rid}: {dump}");
        let line = lines[0];
        assert!(line.contains(&format!("client_id={id} ")), "{line}");
        assert!(line.contains("outcome=cache_hit "), "{line}");
        assert!(line.contains(&format!("n1={N} n2={N} ")), "{line}");
        assert!(
            line.contains("queue_wait_us=0 plan_us=0 worker=-1 "),
            "{line}"
        );
    }
    assert_eq!(picked_up(&handle), 1.0, "only the miss queued");
    let stats = handle.shutdown();
    assert_eq!(stats.served, 5);
}

/// A deterministic fuzz-style sweep of extreme `(t1, t2, T, β, bytes)`
/// frames. Each is answered `Ok`, rejected or refused with an error frame
/// — and afterwards the single I/O thread and the single worker are both
/// still alive: a fresh plan is served and `METRICS` answers.
#[test]
fn extreme_frames_leave_every_thread_alive() {
    let speeds = [
        1e-300,
        f64::MIN_POSITIVE,
        1e-3,
        1.0,
        100.0,
        1e12,
        1e300,
        f64::MAX,
        0.0,
        -1.0,
        f64::NAN,
        f64::INFINITY,
    ];
    let betas = [
        0.0,
        0.05,
        1e3,
        1e15,
        1e300,
        -0.0,
        -1.0,
        f64::NAN,
        f64::INFINITY,
    ];
    let sizes = [1, 1_000_000, 1 << 40, 1 << 59, u64::MAX - 1, u64::MAX];
    let handle = start(ServerConfig {
        workers: 1,
        io_threads: 1,
        ..ServerConfig::default()
    });
    let mut stream = raw(&handle);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let (mut ok, mut refused) = (0, 0);
    for id in 0..400u64 {
        let (n1, n2) = (1 + next(3), 1 + next(3));
        let mut t = TrafficMatrix::zeros(n1, n2);
        for i in 0..n1 {
            for j in 0..n2 {
                if next(3) > 0 {
                    t.set(i, j, sizes[next(sizes.len())]);
                }
            }
        }
        let req = PlanRequest {
            request_id: id,
            algo: if next(2) == 0 { Algo::Oggp } else { Algo::Ggp },
            platform: WirePlatform {
                n1: n1 as u32,
                n2: n2 as u32,
                t1: speeds[next(speeds.len())],
                t2: speeds[next(speeds.len())],
                backbone: speeds[next(speeds.len())],
                beta_seconds: betas[next(betas.len())],
            },
            matrix: CsrMatrix::from_traffic(&t),
        };
        stream.write_all(&wire::encode_request(&req)).unwrap();
        match read_response(&mut stream).1 {
            PlanResponse::Ok {
                request_id,
                cost,
                lower_bound,
                ..
            } => {
                assert_eq!(request_id, id);
                assert!(cost >= lower_bound, "frame {id}: {cost} < {lower_bound}");
                ok += 1;
            }
            PlanResponse::Error { request_id, .. } => {
                assert_eq!(request_id, id);
                refused += 1;
            }
            other => panic!("frame {id}: {other:?}"),
        }
    }
    assert!(
        ok >= 20 && refused >= 20,
        "sweep hit both sides: {ok} ok, {refused} refused"
    );

    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(matches!(
        c.plan(&request(1000, 0)),
        Ok(PlanResponse::Ok { cached: false, .. })
    ));
    // The I/O thread still answers an admin command, and its exposition
    // agrees with the sweep.
    let text = client::fetch_metrics(handle.addr()).unwrap();
    let requests = |outcome| {
        telemetry::metrics::find_sample(&text, "redistd_requests_total", &[("outcome", outcome)])
            .unwrap_or_else(|| panic!("no {outcome} sample in {text}"))
    };
    assert_eq!(
        requests("planned") + requests("cache_hit"),
        (ok + 1) as f64,
        "{text}"
    );
    assert_eq!(requests("error"), refused as f64);
    let stats = handle.shutdown();
    assert_eq!((stats.served, stats.errors), (ok + 1, refused));
}

/// The same hardening behind `DELTA`: a cell whose duration does not fit
/// the tick range on the session's platform is refused with an error
/// frame, and the session (and the worker holding its lock) lives on.
#[test]
fn overflowing_delta_is_refused_and_the_session_survives() {
    let handle = start(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    // An empty matrix is plannable at any speed; 1e-300 Mbit/s passes
    // platform validation.
    let glacial = Platform::new(2, 2, 1e-300, 1e-300, 1.0);
    let open = client::session_open(1, &TrafficMatrix::zeros(2, 2), &glacial, 0.0);
    let session_id = match c.session(&open).unwrap() {
        PlanResponse::Session { session_id, .. } => session_id,
        other => panic!("{other:?}"),
    };
    let set = |bytes| WireDelta::SetCell {
        sender: 0,
        receiver: 1,
        bytes,
    };
    for bytes in [1, u64::MAX] {
        match c
            .session(&client::session_delta(2, session_id, vec![set(bytes)]))
            .unwrap()
        {
            PlanResponse::Error { message, .. } => {
                assert!(message.contains("overflows the tick range"), "{message}")
            }
            other => panic!("{bytes}-byte cell at 1e-300 Mbit/s: {other:?}"),
        }
    }
    match c
        .session(&client::session_delta(3, session_id, vec![set(0)]))
        .unwrap()
    {
        PlanResponse::Session { generation, .. } => assert_eq!(generation, 1),
        other => panic!("session did not survive: {other:?}"),
    }
    handle.shutdown();
}

/// A `DELTA` is held to the budget its session's `OPEN` applies. On a
/// 1×2 platform at 0.004 Mbit/s and β = 306 ms the budget's tick limit
/// falls exactly on a tick value a whole cell converts to, so one cell of
/// `PAST` bytes fits the exact tick sum while `OPEN`'s
/// `ticks(Σ bytes) + nnz` refuses it; `INSIDE` bytes (one tick value
/// lower) fit both.
#[test]
fn a_delta_never_admits_what_open_refuses() {
    const INSIDE: u64 = 1_152_921_504_606_846_000;
    const PAST: u64 = 1_152_921_504_606_846_144;
    let handle = start(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    let platform = Platform::new(1, 2, 0.004, 0.004, 0.004);
    let beta = 0.306;
    let one_cell = |bytes| TrafficMatrix::from_rows(1, 2, vec![bytes, 0]);
    for (bytes, fits) in [(INSIDE, true), (PAST, false)] {
        match c
            .session(&client::session_open(1, &one_cell(bytes), &platform, beta))
            .unwrap()
        {
            PlanResponse::Session { session_id, .. } => {
                assert!(fits, "{bytes} B opened");
                c.session(&client::session_close(2, session_id)).unwrap();
            }
            PlanResponse::Error { message, .. } => {
                assert!(!fits, "{bytes} B refused: {message}");
                assert!(message.contains("tick budget"), "{message}");
            }
            other => panic!("{bytes} B: {other:?}"),
        }
    }
    let open = client::session_open(3, &TrafficMatrix::zeros(1, 2), &platform, beta);
    let session_id = match c.session(&open).unwrap() {
        PlanResponse::Session { session_id, .. } => session_id,
        other => panic!("{other:?}"),
    };
    let set = |bytes| {
        vec![WireDelta::SetCell {
            sender: 0,
            receiver: 0,
            bytes,
        }]
    };
    match c
        .session(&client::session_delta(4, session_id, set(PAST)))
        .unwrap()
    {
        PlanResponse::Error { message, .. } => {
            assert!(message.contains("tick budget"), "{message}")
        }
        other => panic!("a DELTA admitted the matrix OPEN refuses: {other:?}"),
    }
    match c
        .session(&client::session_delta(5, session_id, set(INSIDE)))
        .unwrap()
    {
        PlanResponse::Session { generation, .. } => assert_eq!(generation, 1),
        other => panic!("the matrix OPEN admits was refused: {other:?}"),
    }
    handle.shutdown();
}

/// One 1×1 matrix on either side of the planner's tick budget, at
/// 0.004 Mbit/s (500 B/s, so a megabyte is 2·10⁶ ticks) and β = 50 ms.
/// `redistplan` (`tests/cli.rs`) and `redistexec`
/// (`crates/redistexec/tests/cli.rs`) pin the same two matrices.
const INSIDE_MB: u64 = 1_152_921_504_606;

#[test]
fn the_walk_draws_the_one_tick_budget_line() {
    let platform = Platform::new(1, 1, 0.004, 0.004, 0.004);
    for (mb, fits) in [(INSIDE_MB, true), (INSIDE_MB + 1, false)] {
        let bytes = mb * 1_000_000;
        let verdict = kpbs::traffic::check_tick_budget(
            &platform,
            TickScale::MILLIS,
            BETA,
            1,
            bytes,
            bytes.into(),
        );
        assert_eq!(verdict.is_ok(), fits, "{mb} MB");
        let traffic = TrafficMatrix::from_rows(1, 1, vec![bytes]);
        let frame =
            wire::encode_request(&client::request(1, Algo::Oggp, &traffic, &platform, BETA));
        match wire::walk_frame(&frame[4..]) {
            Ok(_) => assert!(fits, "{mb} MB walked"),
            Err(e) => {
                assert!(!fits, "{mb} MB refused: {e}");
                assert_eq!(e.0, "matrix exceeds the planner's tick budget");
            }
        }
    }
}
