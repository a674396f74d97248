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
        request_id,
        algo,
        platform: wire_platform(platform, beta_seconds),
        matrix: CsrMatrix::from_traffic(traffic),
    }
}

/// The wire form of `platform` with a per-step setup delay of
/// `beta_seconds`.
fn wire_platform(platform: &Platform, beta_seconds: f64) -> WirePlatform {
    WirePlatform {
        n1: platform.n1 as u32,
        n2: platform.n2 as u32,
        t1: platform.t1,
        t2: platform.t2,
        backbone: platform.backbone,
        beta_seconds,
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
        request_id,
        op: SessionOp::Open {
            algo: Algo::Oggp,
            platform: wire_platform(platform, beta_seconds),
            matrix: CsrMatrix::from_traffic(traffic),
        },
    }
}

/// Builds a `DELTA` op applying `deltas` (in order) to a live session.
pub fn session_delta(request_id: u64, session_id: u64, deltas: Vec<WireDelta>) -> SessionRequest {
    SessionRequest {
        request_id,
        op: SessionOp::Delta { session_id, deltas },
    }
}

/// Builds a `COMMIT` op: the server answers the session's current plan
/// (and caches nothing).
pub fn session_commit(request_id: u64, session_id: u64) -> SessionRequest {
    SessionRequest {
        request_id,
        op: SessionOp::Commit { session_id },
    }
}

/// Builds a `CLOSE` op freeing the session's slot.
pub fn session_close(request_id: u64, session_id: u64) -> SessionRequest {
    SessionRequest {
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

/// Fetches the Prometheus text exposition (`METRICS` admin command).
pub fn fetch_metrics<A: ToSocketAddrs>(addr: A) -> io::Result<String> {
    fetch_admin(addr, wire::METRICS_COMMAND)
}

/// Fetches the flight-recorder dump (`FLIGHT` admin command).
pub fn fetch_flight<A: ToSocketAddrs>(addr: A) -> io::Result<String> {
    fetch_admin(addr, wire::FLIGHT_COMMAND)
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
}
