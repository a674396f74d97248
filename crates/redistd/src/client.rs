//! A small blocking client for the wire protocol — used by `redistload`,
//! the loopback tests, and anyone embedding a redistribution client.

use crate::wire::{
    self, Algo, CsrMatrix, PlanRequest, PlanResponse, SessionOp, SessionRequest, WireDelta,
    WirePlatform,
};
use kpbs::{Platform, TrafficMatrix};
use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};

/// A connected planning client. One request is in flight at a time
/// (closed-loop); open more clients for concurrency.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Connects with retries under capped exponential backoff (1 ms
    /// doubling to 200 ms). At 1024 simultaneous connects even a raised
    /// listen backlog drops some SYNs; a load generator should retry
    /// around those instead of reporting them as correctness failures.
    pub fn connect_with_retry<A: ToSocketAddrs + Copy>(
        addr: A,
        attempts: u32,
    ) -> io::Result<Client> {
        let attempts = attempts.max(1);
        let mut delay = std::time::Duration::from_millis(1);
        let mut last = None;
        for attempt in 0..attempts {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last = Some(e);
                    if attempt + 1 < attempts {
                        std::thread::sleep(delay);
                        delay = (delay * 2).min(std::time::Duration::from_millis(200));
                    }
                }
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// Sends one planning request and blocks for its response.
    pub fn plan(&mut self, req: &PlanRequest) -> io::Result<PlanResponse> {
        wire::write_all(&mut self.stream, &wire::encode_request(req))?;
        self.read_response()
    }

    /// Sends one session op (v3 `OPEN`/`DELTA`/`COMMIT`/`CLOSE`) and
    /// blocks for its response. Build ops with [`session_open`],
    /// [`session_delta`], [`session_commit`], [`session_close`].
    pub fn session(&mut self, req: &SessionRequest) -> io::Result<PlanResponse> {
        wire::write_all(&mut self.stream, &wire::encode_session_request(req))?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<PlanResponse> {
        let payload = wire::read_frame(&mut self.stream)?;
        wire::decode_response(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Builds a [`PlanRequest`] from the native types (the canonical CSR
/// construction — identical matrices always encode identically).
pub fn request(
    request_id: u64,
    algo: Algo,
    traffic: &TrafficMatrix,
    platform: &Platform,
    beta_seconds: f64,
) -> PlanRequest {
    PlanRequest {
        wire_version: wire::VERSION,
        request_id,
        algo,
        platform: WirePlatform {
            n1: platform.n1 as u32,
            n2: platform.n2 as u32,
            t1: platform.t1,
            t2: platform.t2,
            backbone: platform.backbone,
            beta_seconds,
        },
        matrix: CsrMatrix::from_traffic(traffic),
    }
}

/// Builds the `OPEN` op for a streaming-admission session (sessions are
/// OGGP-only — incremental repair reuses its warm matching engine).
pub fn session_open(
    request_id: u64,
    traffic: &TrafficMatrix,
    platform: &Platform,
    beta_seconds: f64,
) -> SessionRequest {
    SessionRequest {
        wire_version: wire::VERSION,
        request_id,
        op: SessionOp::Open {
            algo: Algo::Oggp,
            platform: WirePlatform {
                n1: platform.n1 as u32,
                n2: platform.n2 as u32,
                t1: platform.t1,
                t2: platform.t2,
                backbone: platform.backbone,
                beta_seconds,
            },
            matrix: CsrMatrix::from_traffic(traffic),
        },
    }
}

/// Builds a `DELTA` op applying `deltas` (in order) to a live session.
pub fn session_delta(request_id: u64, session_id: u64, deltas: Vec<WireDelta>) -> SessionRequest {
    SessionRequest {
        wire_version: wire::VERSION,
        request_id,
        op: SessionOp::Delta { session_id, deltas },
    }
}

/// Builds a `COMMIT` op: the server answers the session's current plan
/// (and caches nothing).
pub fn session_commit(request_id: u64, session_id: u64) -> SessionRequest {
    SessionRequest {
        wire_version: wire::VERSION,
        request_id,
        op: SessionOp::Commit { session_id },
    }
}

/// Builds a `CLOSE` op freeing the session's slot.
pub fn session_close(request_id: u64, session_id: u64) -> SessionRequest {
    SessionRequest {
        wire_version: wire::VERSION,
        request_id,
        op: SessionOp::Close { session_id },
    }
}

fn fetch_admin<A: ToSocketAddrs>(addr: A, command: &[u8]) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    wire::write_all(&mut stream, command)?;
    let mut out = String::new();
    stream.read_to_string(&mut out)?;
    Ok(out)
}

/// Fetches the plaintext `STATS` report over a dedicated connection (the
/// server answers and closes).
pub fn fetch_stats<A: ToSocketAddrs>(addr: A) -> io::Result<String> {
    fetch_admin(addr, wire::STATS_COMMAND)
}

/// Fetches the Prometheus text exposition (`METRICS` admin command).
pub fn fetch_metrics<A: ToSocketAddrs>(addr: A) -> io::Result<String> {
    fetch_admin(addr, wire::METRICS_COMMAND)
}

/// Fetches the flight-recorder dump (`FLIGHT` admin command).
pub fn fetch_flight<A: ToSocketAddrs>(addr: A) -> io::Result<String> {
    fetch_admin(addr, wire::FLIGHT_COMMAND)
}

/// Pulls `key: value` integers out of a `STATS` report (helper for tools
/// asserting on server state).
///
/// The first line carrying `key` decides the result: a malformed value on
/// that line yields `None` rather than silently falling through to a later
/// duplicate — a report that repeats a key is itself suspect, and scanning
/// on would let a corrupted line go unnoticed.
pub fn stats_field(report: &str, key: &str) -> Option<u64> {
    first_field(report, key)?.trim().parse().ok()
}

/// Like [`stats_field`] but for fractional fields (`cache_hit_rate`,
/// `service_us_mean`). Non-finite values (`NaN`, `inf`) — which a healthy
/// server never emits — are rejected as `None` so callers can't propagate
/// them into comparisons that silently come out false.
pub fn stats_field_f64(report: &str, key: &str) -> Option<f64> {
    let v: f64 = first_field(report, key)?.trim().parse().ok()?;
    v.is_finite().then_some(v)
}

/// The raw value of the first line matching `key`, or `None` when absent.
fn first_field<'a>(report: &'a str, key: &str) -> Option<&'a str> {
    report.lines().find_map(|l| {
        let (k, v) = l.split_once(": ")?;
        (k == key).then_some(v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_with_retry_gives_up_after_attempts() {
        // A port nothing listens on: refused immediately, so three
        // attempts (1 + 2 ms of backoff) still finish fast.
        let addr: std::net::SocketAddr = "127.0.0.1:1".parse().unwrap();
        let start = std::time::Instant::now();
        assert!(Client::connect_with_retry(addr, 3).is_err());
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn connect_with_retry_succeeds_first_try() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        assert!(Client::connect_with_retry(addr, 3).is_ok());
    }

    #[test]
    fn stats_field_parses_integers() {
        let report = "redistd stats\nserved: 12\ncache_hit_rate: 0.5000\nqueue_depth: 0\n";
        assert_eq!(stats_field(report, "served"), Some(12));
        assert_eq!(stats_field(report, "queue_depth"), Some(0));
        assert_eq!(stats_field(report, "cache_hit_rate"), None); // not an int
        assert_eq!(stats_field(report, "missing"), None);
    }

    #[test]
    fn stats_field_f64_parses_fractions_and_integers() {
        let report = "redistd stats\nserved: 12\ncache_hit_rate: 0.5000\nqueue_depth: 0\n";
        assert_eq!(stats_field_f64(report, "cache_hit_rate"), Some(0.5));
        assert_eq!(stats_field_f64(report, "served"), Some(12.0));
        assert_eq!(stats_field_f64(report, "missing"), None);
    }

    #[test]
    fn stats_field_f64_rejects_non_finite_values() {
        let report = "a: NaN\nb: inf\nc: -inf\nd: 1.5\n";
        assert_eq!(stats_field_f64(report, "a"), None);
        assert_eq!(stats_field_f64(report, "b"), None);
        assert_eq!(stats_field_f64(report, "c"), None);
        assert_eq!(stats_field_f64(report, "d"), Some(1.5));
    }

    #[test]
    fn stats_field_first_occurrence_wins_on_duplicates() {
        // The first matching line decides — even when it is malformed and a
        // later duplicate would parse. A repeated key means the report is
        // corrupt; falling through would mask that.
        let report = "x: garbage\nx: 7\ny: 1\ny: 2\n";
        assert_eq!(stats_field(report, "x"), None);
        assert_eq!(stats_field_f64(report, "x"), None);
        assert_eq!(stats_field(report, "y"), Some(1));
        assert_eq!(stats_field_f64(report, "y"), Some(1.0));
    }

    #[test]
    fn stats_field_edge_cases() {
        // Missing separator, empty report, key-is-prefix-of-another.
        assert_eq!(stats_field("", "k"), None);
        assert_eq!(stats_field("k 5\n", "k"), None);
        let report = "served_total: 9\nserved: 3\n";
        assert_eq!(stats_field(report, "served"), Some(3));
        assert_eq!(stats_field(report, "served_total"), Some(9));
    }
}
