//! The length-prefixed binary wire protocol.
//!
//! Every frame on the wire is a big-endian `u32` payload length followed by
//! the payload. Payloads open with the 4-byte magic `RDST` and a `u16`
//! protocol version, so a stray client speaking the wrong protocol fails
//! loudly instead of being misparsed. The exception is the plaintext admin
//! commands: a client may send the literal ASCII bytes `METRICS\n` or
//! `FLIGHT\n` instead of a frame, and the server answers with a plain-text
//! report and closes the connection (the server sniffs the first four
//! bytes before committing to a length; read as a length, each command's
//! first four bytes exceed [`MAX_FRAME`]). Any other plaintext reads as an
//! oversized length, so the server closes the connection unanswered.
//!
//! # Versioning
//!
//! The current version is 3; the server accepts 1 through 3 and **replies
//! in the version the request was sent with**, so old clients keep working
//! unchanged. Version 2 adds one field: `Ok` responses carry a trailing
//! `server_id` — the request id the server minted at admission, the key
//! that joins a client-observed response to its flight-recorder record,
//! span timeline, and metric deltas. Version-1 responses omit the field
//! and decode with `server_id = 0` ("not correlated").
//!
//! Version 3 adds the **session ops** of the delta-planning control plane:
//! request kinds 1–4 (`OPEN`/`DELTA`/`COMMIT`/`CLOSE`) and response
//! statuses 4 (session ok) and 5 (session rejected). The kinds are
//! version-gated — a v1/v2 frame carrying them is refused — and kind 0
//! frames encode byte-identically to v2, so the extension is invisible to
//! stateless clients.
//!
//! # Session request payloads (v3, kinds 1–4)
//!
//! `OPEN` (kind 1) carries exactly a plan request's body after the kind
//! byte. `DELTA` (kind 2) carries `request id (u64)`, `session id (u64)`,
//! `ndeltas (u32)` and then per delta a tag byte: 0 = set-cell
//! `(sender u32, receiver u32, bytes u64)`, 1 = grow-nodes
//! `(senders u32, receivers u32)`, 2 = drop-sender `(sender u32)`,
//! 3 = drop-receiver `(receiver u32)`. `COMMIT` (kind 3) and `CLOSE`
//! (kind 4) carry `request id (u64), session id (u64)`.
//!
//! A session response (status 4) carries `session id (u64)`,
//! `generation (u64)`, a repair-`level` byte, then the same
//! schedule/cost/lower-bound/work/server-id tail as a plan `Ok`. Status 5
//! is a session rejection: `session id (u64)` plus a reason byte
//! (0 = table full, 1 = unknown session).
//!
//! # Plan request payload
//!
//! | field       | type           | notes                                   |
//! |-------------|----------------|-----------------------------------------|
//! | magic       | `[u8; 4]`      | `RDST`                                  |
//! | version     | `u16`          | 1 or 2 (layout identical)               |
//! | kind        | `u8`           | 0 = plan                                |
//! | request id  | `u64`          | echoed verbatim in the response         |
//! | algorithm   | `u8`           | 0 = OGGP, 1 = GGP                       |
//! | n1, n2      | `u32 × 2`      | senders × receivers                     |
//! | t1, t2, T, β| `f64 × 4`      | platform Mbit/s throughputs, β seconds  |
//! | nnz         | `u32`          | non-zero message count                  |
//! | row_ptr     | `u32 × (n1+1)` | CSR row offsets into the entry list     |
//! | entries     | `(u32, u64) × nnz` | column, bytes — strictly ascending columns per row |
//!
//! # Plan response payload
//!
//! | field       | type      | notes                                        |
//! |-------------|-----------|----------------------------------------------|
//! | magic       | `[u8; 4]` | `RDST`                                       |
//! | version     | `u16`     | echoes the request's version                 |
//! | request id  | `u64`     | copied from the request                      |
//! | status      | `u8`      | 0 = ok, 1 = queue full, 2 = matrix too large, 3 = error |
//! | ok: cached  | `u8`      | 1 when served from the plan cache            |
//! | ok: schedule| see [`encode_schedule`] | byte-identical to a cold plan  |
//! | ok: cost    | `u64`     | `Σ (β + step duration)` in ticks             |
//! | ok: lower bound | `u64` | Cohen–Jeannot–Padoy bound in ticks           |
//! | ok: work    | `u8` + `u64 × n` | per-request counter deltas, [`Counter::ALL`](telemetry::counters::Counter::ALL) order |
//! | ok: server id | `u64`   | **v2 only**: server-minted correlation id    |
//! | error: message | `u32` + utf-8 | decode/validation failure detail         |
//!
//! The CSR encoding is the *canonical* construction: rows in sender order,
//! strictly ascending columns inside a row, all byte counts positive. The
//! decoder rejects anything else, which is what lets the server key its
//! plan cache on [`mod@kpbs::fingerprint`] — equal matrices always decode into
//! identical instances (see that module's docs).

use kpbs::traffic::{self, TickScale};
use kpbs::{Platform, Schedule, TrafficMatrix};
use std::io::{self, Read, Write};
use telemetry::counters::COUNTER_COUNT;

/// Frame magic: first four payload bytes of every binary frame.
pub const MAGIC: [u8; 4] = *b"RDST";
/// Current protocol version (what new clients send).
pub const VERSION: u16 = 3;
/// Oldest version that understands the session ops (kinds 1–4).
pub const SESSION_MIN_VERSION: u16 = 3;
/// Oldest version the server still accepts.
pub const MIN_VERSION: u16 = 1;
/// Hard ceiling on any frame payload (16 MiB) — a malformed length prefix
/// must not make the server allocate unboundedly.
pub const MAX_FRAME: u32 = 16 << 20;
/// The discretisation every frame is planned at: bytes and β seconds become
/// millisecond ticks. Fixed here because the decoder's tick-budget check,
/// the admission-time cache key and the worker's instance must all agree.
pub const TICK_SCALE: TickScale = TickScale::MILLIS;
/// The plaintext admin command requesting Prometheus text exposition.
pub const METRICS_COMMAND: &[u8] = b"METRICS\n";
/// The plaintext admin command requesting a flight-recorder dump.
pub const FLIGHT_COMMAND: &[u8] = b"FLIGHT\n";

/// Scheduling algorithm requested on the wire: the one-byte code table of
/// the planners a request may name (see `From<Algo> for kpbs::Algo`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Optimised Generic Graph Peeling — the default planner.
    Oggp = 0,
    /// Generic Graph Peeling.
    Ggp = 1,
}

impl Algo {
    fn from_u8(v: u8) -> Result<Algo, WireError> {
        match v {
            0 => Ok(Algo::Oggp),
            1 => Ok(Algo::Ggp),
            other => Err(WireError::new(format!("unknown algorithm {other}"))),
        }
    }
}

/// The planner a wire code names.
impl From<Algo> for kpbs::Algo {
    fn from(algo: Algo) -> kpbs::Algo {
        match algo {
            Algo::Oggp => kpbs::Algo::Oggp,
            Algo::Ggp => kpbs::Algo::Ggp,
        }
    }
}

/// Platform parameters carried by a request (see [`kpbs::Platform`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePlatform {
    /// Sender cluster size.
    pub n1: u32,
    /// Receiver cluster size.
    pub n2: u32,
    /// Sender NIC throughput, Mbit/s.
    pub t1: f64,
    /// Receiver NIC throughput, Mbit/s.
    pub t2: f64,
    /// Backbone throughput, Mbit/s.
    pub backbone: f64,
    /// Per-step setup delay, seconds.
    pub beta_seconds: f64,
}

impl WirePlatform {
    /// The [`kpbs::Platform`] these parameters describe. Decoded platforms
    /// have passed `Topology::validate`, so the constructor's positivity
    /// assertions hold.
    pub fn to_platform(&self) -> Platform {
        Platform::new(
            self.n1 as usize,
            self.n2 as usize,
            self.t1,
            self.t2,
            self.backbone,
        )
    }
}

/// A CSR-encoded traffic matrix: `row_ptr[i]..row_ptr[i+1]` indexes the
/// `(col, bytes)` entries of sender `i`, columns strictly ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrMatrix {
    /// Sender count (rows).
    pub n1: u32,
    /// Receiver count (columns).
    pub n2: u32,
    /// `n1 + 1` offsets into `cols`/`bytes`.
    pub row_ptr: Vec<u32>,
    /// Column of each non-zero entry.
    pub cols: Vec<u32>,
    /// Byte count of each non-zero entry (always positive).
    pub bytes: Vec<u64>,
}

impl CsrMatrix {
    /// Compresses a dense [`TrafficMatrix`] (zeros dropped, row-major order
    /// — the canonical encoding).
    pub fn from_traffic(t: &TrafficMatrix) -> CsrMatrix {
        let (n1, n2) = (t.senders(), t.receivers());
        let mut row_ptr = Vec::with_capacity(n1 + 1);
        let mut cols = Vec::new();
        let mut bytes = Vec::new();
        row_ptr.push(0);
        for i in 0..n1 {
            for j in 0..n2 {
                let b = t.get(i, j);
                if b > 0 {
                    cols.push(j as u32);
                    bytes.push(b);
                }
            }
            row_ptr.push(cols.len() as u32);
        }
        CsrMatrix {
            n1: n1 as u32,
            n2: n2 as u32,
            row_ptr,
            cols,
            bytes,
        }
    }

    /// Expands back into a dense [`TrafficMatrix`].
    pub fn to_traffic(&self) -> TrafficMatrix {
        let mut t = TrafficMatrix::zeros(self.n1 as usize, self.n2 as usize);
        for i in 0..self.n1 as usize {
            for e in self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize {
                t.set(i, self.cols[e] as usize, self.bytes[e]);
            }
        }
        t
    }

    /// Number of matrix cells (`n1 × n2`) — the admission-control size.
    pub fn cells(&self) -> u64 {
        self.n1 as u64 * self.n2 as u64
    }

    /// Total payload bytes, saturating (entries are arbitrary `u64`s off
    /// the wire; the figure only feeds metrics and flight records).
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().fold(0, |acc, &b| acc.saturating_add(b))
    }

    /// The plan-cache key of this matrix on `platform`: the same `u128` as
    /// `kpbs::cache_key(&self.to_traffic().to_instance(platform,
    /// beta_seconds, scale).0, tag)`, streamed straight from the CSR arrays
    /// — no dense matrix, no graph. Row-major CSR order *is* the canonical
    /// edge order, and ticks go through the same
    /// [`kpbs::traffic::message_ticks`] choke point.
    pub fn cache_key(
        &self,
        platform: &Platform,
        beta_seconds: f64,
        scale: TickScale,
        tag: u64,
    ) -> u128 {
        let edges = (0..self.n1 as usize).flat_map(|i| {
            (self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize).map(move |e| {
                let ticks = traffic::message_ticks(platform, scale, self.bytes[e]);
                (i, self.cols[e] as usize, ticks)
            })
        });
        kpbs::cache_key_from_edges(
            tag,
            self.n1 as usize,
            self.n2 as usize,
            self.cols.len(),
            edges,
            platform.k(),
            scale.to_ticks(beta_seconds),
        )
    }

    /// Rejects a matrix whose tick conversion is not total on `platform`:
    /// a cell (or β) whose duration is non-finite or does not fit `u64`
    /// ticks, or totals beyond [`kpbs::traffic::plan_ticks_fit`]. Speeds
    /// like `1e-300` pass `Topology::validate` yet make
    /// [`kpbs::traffic::message_ticks`] panic, and merely slow ones
    /// overflow `k·W(G)` inside the planner; after this check neither the
    /// admission-time key nor the worker's plan can.
    ///
    /// Ticks are monotone in bytes, so the largest cell speaks for every
    /// cell, and `Σ ticks(bᵢ) ≤ ticks(Σ bᵢ) + nnz` (each cell rounds up by
    /// less than one tick) bounds the total — one integer pass and two
    /// conversions instead of a division per cell. The float rounding in
    /// that bound is parts in 10¹⁵ against the budget's factor-4 headroom.
    fn check_tick_budget(&self, platform: &Platform, beta_seconds: f64) -> Result<(), WireError> {
        let beta = TICK_SCALE
            .try_to_ticks(beta_seconds)
            .ok_or_else(|| WireError::new("beta overflows the tick range"))?;
        let largest = self.bytes.iter().copied().max().unwrap_or(0);
        traffic::try_message_ticks(platform, TICK_SCALE, largest)
            .ok_or_else(|| WireError::new("cell duration overflows the tick range"))?;
        let over_budget = || WireError::new("matrix exceeds the planner's tick budget");
        let nnz = self.bytes.len();
        let total = u64::try_from(self.bytes.iter().map(|&b| b as u128).sum::<u128>())
            .ok()
            .and_then(|sum| traffic::try_message_ticks(platform, TICK_SCALE, sum))
            .and_then(|ticks| ticks.checked_add(nnz as u64))
            .ok_or_else(over_budget)?;
        let (n1, n2) = (self.n1 as usize, self.n2 as usize);
        if !traffic::plan_ticks_fit(n1, n2, platform.k(), nnz, total, beta) {
            return Err(over_budget());
        }
        Ok(())
    }

    /// Structural validation: offsets monotone and in range, columns
    /// strictly ascending per row and `< n2`, byte counts positive.
    pub fn validate(&self) -> Result<(), WireError> {
        if self.row_ptr.len() != self.n1 as usize + 1 {
            return Err(WireError::new("row_ptr length mismatch"));
        }
        if self.row_ptr[0] != 0 || *self.row_ptr.last().unwrap() as usize != self.cols.len() {
            return Err(WireError::new("row_ptr endpoints invalid"));
        }
        if self.cols.len() != self.bytes.len() {
            return Err(WireError::new("cols/bytes length mismatch"));
        }
        for w in self.row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(WireError::new("row_ptr not monotone"));
            }
        }
        for i in 0..self.n1 as usize {
            let row = &self.cols[self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize];
            for pair in row.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(WireError::new(format!("row {i} columns not ascending")));
                }
            }
            if row.iter().any(|&c| c >= self.n2) {
                return Err(WireError::new(format!("row {i} column out of range")));
            }
        }
        if self.bytes.contains(&0) {
            return Err(WireError::new("zero-byte entry"));
        }
        Ok(())
    }
}

/// A decoded planning request.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// Protocol version this request speaks ([`MIN_VERSION`]`..=`[`VERSION`]).
    /// The server replies in the same version.
    pub wire_version: u16,
    /// Client-chosen identifier, echoed in the response.
    pub request_id: u64,
    /// Requested algorithm.
    pub algo: Algo,
    /// Platform parameters.
    pub platform: WirePlatform,
    /// The traffic matrix.
    pub matrix: CsrMatrix,
}

impl PlanRequest {
    /// The plan-cache key of this request at the server's [`TICK_SCALE`]
    /// (see [`CsrMatrix::cache_key`]). Total for any decoded request.
    pub fn cache_key(&self) -> u128 {
        self.matrix.cache_key(
            &self.platform.to_platform(),
            self.platform.beta_seconds,
            TICK_SCALE,
            self.algo as u64,
        )
    }
}

/// One sparse matrix edit carried by a `DELTA` frame. Cell amounts are in
/// **bytes** (like plan-request entries); the server converts them to
/// ticks with the session's platform, exactly as it does matrix cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireDelta {
    /// Sets cell `(sender, receiver)` to `bytes` (zero clears it).
    SetCell {
        /// Sender (row) index.
        sender: u32,
        /// Receiver (column) index.
        receiver: u32,
        /// New message size in bytes; 0 cancels the message.
        bytes: u64,
    },
    /// Appends sender and/or receiver nodes to the live instance.
    GrowNodes {
        /// Sender nodes to append.
        senders: u32,
        /// Receiver nodes to append.
        receivers: u32,
    },
    /// Cancels every message of one sender (node drop).
    DropSender(
        /// Sender (row) index.
        u32,
    ),
    /// Cancels every message towards one receiver (node drop).
    DropReceiver(
        /// Receiver (column) index.
        u32,
    ),
}

/// The session operation a v3 frame requests.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOp {
    /// Opens a session: cold-plans the matrix and holds it live.
    Open {
        /// Requested algorithm for the session's plans.
        algo: Algo,
        /// Platform parameters (fixed for the session's lifetime).
        platform: WirePlatform,
        /// The initial traffic matrix.
        matrix: CsrMatrix,
    },
    /// Applies deltas to a live session and repairs its schedule.
    Delta {
        /// Server-minted session id from the `Open` response.
        session_id: u64,
        /// The edits, applied in order.
        deltas: Vec<WireDelta>,
    },
    /// Acknowledges the session's current plan; the server answers it and
    /// caches nothing.
    Commit {
        /// Server-minted session id.
        session_id: u64,
    },
    /// Closes the session and frees its state.
    Close {
        /// Server-minted session id.
        session_id: u64,
    },
}

/// A decoded session request (wire kinds 1–4; v3+ only).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// Protocol version this request speaks (≥ [`SESSION_MIN_VERSION`]).
    pub wire_version: u16,
    /// Client-chosen identifier, echoed in the response.
    pub request_id: u64,
    /// The requested operation.
    pub op: SessionOp,
}

/// Any decodable binary request frame: a stateless plan (kind 0, any
/// version) or a session op (kinds 1–4, v3+).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A stateless plan request.
    Plan(PlanRequest),
    /// A session operation.
    Session(SessionRequest),
}

impl Request {
    /// The client-chosen request id.
    pub fn request_id(&self) -> u64 {
        match self {
            Request::Plan(r) => r.request_id,
            Request::Session(r) => r.request_id,
        }
    }

    /// The protocol version the request was sent with.
    pub fn wire_version(&self) -> u16 {
        match self {
            Request::Plan(r) => r.wire_version,
            Request::Session(r) => r.wire_version,
        }
    }
}

/// What a session response reports the planner did (mirrors
/// [`kpbs::delta::RepairLevel`] plus the lifecycle ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionLevel {
    /// The session was opened with a cold plan.
    Opened = 0,
    /// The delta was absorbed by in-place repair.
    Repair = 1,
    /// The delta needed a bounded re-peel.
    RePeel = 2,
    /// The delta fell back to a cold plan.
    Cold = 3,
    /// The current plan was committed (acknowledged; nothing is cached).
    Committed = 4,
    /// The session was closed.
    Closed = 5,
}

impl SessionLevel {
    fn from_u8(v: u8) -> Result<SessionLevel, WireError> {
        Ok(match v {
            0 => SessionLevel::Opened,
            1 => SessionLevel::Repair,
            2 => SessionLevel::RePeel,
            3 => SessionLevel::Cold,
            4 => SessionLevel::Committed,
            5 => SessionLevel::Closed,
            other => return Err(WireError::new(format!("unknown session level {other}"))),
        })
    }

    /// Stable lower-case label (logs, JSON, load-generator reports).
    pub fn label(self) -> &'static str {
        match self {
            SessionLevel::Opened => "opened",
            SessionLevel::Repair => "repair",
            SessionLevel::RePeel => "repeel",
            SessionLevel::Cold => "cold",
            SessionLevel::Committed => "committed",
            SessionLevel::Closed => "closed",
        }
    }
}

/// Why a session op was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionRejectReason {
    /// The session table is at capacity (backpressure; retry later).
    TableFull = 0,
    /// The session id is unknown (never opened, closed, or evicted).
    UnknownSession = 1,
}

/// Why a request was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded request queue was at capacity (backpressure, not a hang).
    QueueFull,
    /// The matrix exceeds the server's configured cell limit.
    MatrixTooLarge,
}

/// A decoded response.
///
/// The `Ok` variant carries the inline `work` counter array (~200 bytes);
/// responses live one at a time per connection, never in bulk, so the
/// variant size imbalance costs nothing.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum PlanResponse {
    /// The request was planned (or served from cache).
    Ok {
        /// Echoed request id.
        request_id: u64,
        /// True when the schedule came from the plan cache.
        cached: bool,
        /// The schedule — byte-identical to a cold run on the same instance.
        schedule: Schedule,
        /// Schedule cost in ticks.
        cost: u64,
        /// Lower bound in ticks.
        lower_bound: u64,
        /// Work-counter deltas of *this* request, [`telemetry::counters::Counter::ALL`] order.
        work: [u64; COUNTER_COUNT],
        /// Server-minted request id (v2 frames only; 0 from a v1 response).
        /// Joins this response to the server's flight record and spans.
        server_id: u64,
    },
    /// Admission control refused the request.
    Rejected {
        /// Echoed request id.
        request_id: u64,
        /// Why.
        reason: RejectReason,
    },
    /// The request could not be decoded or was structurally invalid.
    Error {
        /// Echoed request id (0 when the id itself was unreadable).
        request_id: u64,
        /// Failure detail.
        message: String,
    },
    /// A session op succeeded (v3 status 4).
    Session {
        /// Echoed request id.
        request_id: u64,
        /// The session the op addressed (server-minted at `OPEN`).
        session_id: u64,
        /// The session's replan generation after this op.
        generation: u64,
        /// What the planner did.
        level: SessionLevel,
        /// The session's committed schedule after this op.
        schedule: Schedule,
        /// Schedule cost in ticks.
        cost: u64,
        /// Lower bound of the live instance in ticks.
        lower_bound: u64,
        /// Work-counter deltas of this op, [`telemetry::counters::Counter::ALL`] order.
        work: [u64; COUNTER_COUNT],
        /// Server-minted correlation id.
        server_id: u64,
    },
    /// A session op was refused (v3 status 5).
    SessionRejected {
        /// Echoed request id.
        request_id: u64,
        /// The session id the op addressed (0 for a refused `OPEN`).
        session_id: u64,
        /// Why.
        reason: SessionRejectReason,
    },
}

/// A malformed frame or field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl WireError {
    fn new(msg: impl Into<String>) -> WireError {
        WireError(msg.into())
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- cursors

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::new("truncated frame"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::new("trailing bytes in frame"))
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Starts a frame: a placeholder for the length prefix, the magic and the
/// protocol version. [`finish_frame`] fills the prefix in.
fn begin_frame(capacity: usize, version: u16) -> Vec<u8> {
    let mut p = Vec::with_capacity(capacity);
    p.extend_from_slice(&[0; 4]);
    p.extend_from_slice(&MAGIC);
    put_u16(&mut p, version);
    p
}

fn finish_frame(mut p: Vec<u8>) -> Vec<u8> {
    let len = (p.len() - 4) as u32;
    p[..4].copy_from_slice(&len.to_be_bytes());
    p
}

fn check_header(c: &mut Cursor) -> Result<u16, WireError> {
    if c.take(4)? != MAGIC {
        return Err(WireError::new("bad magic"));
    }
    let v = c.u16()?;
    if !(MIN_VERSION..=VERSION).contains(&v) {
        return Err(WireError::new(format!("unsupported version {v}")));
    }
    Ok(v)
}

// --------------------------------------------------------------- encoding

/// Encodes a request as a full frame (length prefix included).
pub fn encode_request(req: &PlanRequest) -> Vec<u8> {
    let capacity = 64 + 4 * req.matrix.row_ptr.len() + 12 * req.matrix.cols.len();
    let mut p = begin_frame(capacity, req.wire_version);
    p.push(0); // kind: plan
    put_u64(&mut p, req.request_id);
    p.push(req.algo as u8);
    put_u32(&mut p, req.platform.n1);
    put_u32(&mut p, req.platform.n2);
    put_f64(&mut p, req.platform.t1);
    put_f64(&mut p, req.platform.t2);
    put_f64(&mut p, req.platform.backbone);
    put_f64(&mut p, req.platform.beta_seconds);
    put_u32(&mut p, req.matrix.cols.len() as u32);
    for &o in &req.matrix.row_ptr {
        put_u32(&mut p, o);
    }
    for (&c, &b) in req.matrix.cols.iter().zip(&req.matrix.bytes) {
        put_u32(&mut p, c);
        put_u64(&mut p, b);
    }
    finish_frame(p)
}

/// Encodes a session request as a full frame (length prefix included).
pub fn encode_session_request(req: &SessionRequest) -> Vec<u8> {
    debug_assert!(req.wire_version >= SESSION_MIN_VERSION);
    let mut p = begin_frame(64, req.wire_version);
    match &req.op {
        SessionOp::Open {
            algo,
            platform,
            matrix,
        } => {
            p.push(1); // kind: session open
            put_u64(&mut p, req.request_id);
            p.push(*algo as u8);
            put_u32(&mut p, platform.n1);
            put_u32(&mut p, platform.n2);
            put_f64(&mut p, platform.t1);
            put_f64(&mut p, platform.t2);
            put_f64(&mut p, platform.backbone);
            put_f64(&mut p, platform.beta_seconds);
            put_u32(&mut p, matrix.cols.len() as u32);
            for &o in &matrix.row_ptr {
                put_u32(&mut p, o);
            }
            for (&c, &b) in matrix.cols.iter().zip(&matrix.bytes) {
                put_u32(&mut p, c);
                put_u64(&mut p, b);
            }
        }
        SessionOp::Delta { session_id, deltas } => {
            p.push(2); // kind: session delta
            put_u64(&mut p, req.request_id);
            put_u64(&mut p, *session_id);
            put_u32(&mut p, deltas.len() as u32);
            for d in deltas {
                match *d {
                    WireDelta::SetCell {
                        sender,
                        receiver,
                        bytes,
                    } => {
                        p.push(0);
                        put_u32(&mut p, sender);
                        put_u32(&mut p, receiver);
                        put_u64(&mut p, bytes);
                    }
                    WireDelta::GrowNodes { senders, receivers } => {
                        p.push(1);
                        put_u32(&mut p, senders);
                        put_u32(&mut p, receivers);
                    }
                    WireDelta::DropSender(i) => {
                        p.push(2);
                        put_u32(&mut p, i);
                    }
                    WireDelta::DropReceiver(j) => {
                        p.push(3);
                        put_u32(&mut p, j);
                    }
                }
            }
        }
        SessionOp::Commit { session_id } => {
            p.push(3); // kind: session commit
            put_u64(&mut p, req.request_id);
            put_u64(&mut p, *session_id);
        }
        SessionOp::Close { session_id } => {
            p.push(4); // kind: session close
            put_u64(&mut p, req.request_id);
            put_u64(&mut p, *session_id);
        }
    }
    finish_frame(p)
}

/// Decodes any binary request payload — a stateless plan (kind 0) or a
/// session op (kinds 1–4, version-gated to v3+).
pub fn decode_frame(payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor::new(payload);
    let wire_version = check_header(&mut c)?;
    let kind = c.u8()?;
    if kind == 0 {
        let request_id = c.u64()?;
        let (algo, platform, matrix) = decode_plan_body(&mut c, payload)?;
        return Ok(Request::Plan(PlanRequest {
            wire_version,
            request_id,
            algo,
            platform,
            matrix,
        }));
    }
    if !(1..=4).contains(&kind) {
        return Err(WireError::new(format!("unknown request kind {kind}")));
    }
    if wire_version < SESSION_MIN_VERSION {
        return Err(WireError::new(format!(
            "request kind {kind} requires protocol version {SESSION_MIN_VERSION}, got {wire_version}"
        )));
    }
    let request_id = c.u64()?;
    let op = match kind {
        1 => {
            let (algo, platform, matrix) = decode_plan_body(&mut c, payload)?;
            SessionOp::Open {
                algo,
                platform,
                matrix,
            }
        }
        2 => {
            let session_id = c.u64()?;
            let ndeltas = c.u32()? as usize;
            let mut deltas = Vec::with_capacity(ndeltas.min(1 << 16));
            for _ in 0..ndeltas {
                deltas.push(match c.u8()? {
                    0 => WireDelta::SetCell {
                        sender: c.u32()?,
                        receiver: c.u32()?,
                        bytes: c.u64()?,
                    },
                    1 => WireDelta::GrowNodes {
                        senders: c.u32()?,
                        receivers: c.u32()?,
                    },
                    2 => WireDelta::DropSender(c.u32()?),
                    3 => WireDelta::DropReceiver(c.u32()?),
                    other => return Err(WireError::new(format!("unknown delta tag {other}"))),
                });
            }
            c.done()?;
            SessionOp::Delta { session_id, deltas }
        }
        3 => {
            let session_id = c.u64()?;
            c.done()?;
            SessionOp::Commit { session_id }
        }
        _ => {
            let session_id = c.u64()?;
            c.done()?;
            SessionOp::Close { session_id }
        }
    };
    Ok(Request::Session(SessionRequest {
        wire_version,
        request_id,
        op,
    }))
}

/// Decodes a stateless plan request payload (kind 0; no length prefix).
pub fn decode_request(payload: &[u8]) -> Result<PlanRequest, WireError> {
    match decode_frame(payload)? {
        Request::Plan(req) => Ok(req),
        Request::Session(_) => Err(WireError::new("expected a plan request, got a session op")),
    }
}

/// Decodes the algo/platform/matrix body shared by plan and `OPEN` frames
/// (everything after the request id), consuming the cursor to the end.
fn decode_plan_body(
    c: &mut Cursor,
    payload: &[u8],
) -> Result<(Algo, WirePlatform, CsrMatrix), WireError> {
    let algo = Algo::from_u8(c.u8()?)?;
    let n1 = c.u32()?;
    let n2 = c.u32()?;
    let t1 = c.f64()?;
    let t2 = c.f64()?;
    let backbone = c.f64()?;
    let beta_seconds = c.f64()?;
    if n1 == 0 || n2 == 0 {
        return Err(WireError::new("empty cluster"));
    }
    // Wire-decoded platforms go through the same validation choke point as
    // every other topology construction (non-finite / non-positive speeds
    // and capacities rejected before anything downstream sees them).
    kpbs::Topology::two_cluster(n1 as usize, n2 as usize, t1, t2, backbone)
        .validate()
        .map_err(|_| WireError::new("invalid platform throughputs"))?;
    if !(beta_seconds >= 0.0 && beta_seconds.is_finite()) {
        return Err(WireError::new("invalid beta"));
    }
    let nnz = c.u32()? as usize;
    // Cheap structural bound before allocating: every offset/entry must fit
    // in the remaining payload.
    let need = (n1 as usize + 1) * 4 + nnz * 12;
    if payload.len() - c.pos != need {
        return Err(WireError::new("matrix section length mismatch"));
    }
    let mut row_ptr = Vec::with_capacity(n1 as usize + 1);
    for _ in 0..=n1 {
        row_ptr.push(c.u32()?);
    }
    let mut cols = Vec::with_capacity(nnz);
    let mut bytes = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        cols.push(c.u32()?);
        bytes.push(c.u64()?);
    }
    c.done()?;
    let matrix = CsrMatrix {
        n1,
        n2,
        row_ptr,
        cols,
        bytes,
    };
    matrix.validate()?;
    let platform = WirePlatform {
        n1,
        n2,
        t1,
        t2,
        backbone,
        beta_seconds,
    };
    matrix.check_tick_budget(&platform.to_platform(), beta_seconds)?;
    Ok((algo, platform, matrix))
}

/// The deterministic byte encoding of a schedule — the exact bytes an `Ok`
/// response carries, exposed so tests (and the cache-consistency check) can
/// byte-compare a served schedule against a cold plan.
pub fn encode_schedule(s: &Schedule) -> Vec<u8> {
    let mut out = Vec::with_capacity(schedule_len(s));
    put_schedule(&mut out, s);
    out
}

/// Length of [`encode_schedule`]'s bytes for `s`.
fn schedule_len(s: &Schedule) -> usize {
    let transfers: usize = s.steps.iter().map(|step| step.transfers.len()).sum();
    12 + 4 * s.steps.len() + 12 * transfers
}

/// Appends [`encode_schedule`]'s bytes for `s` to `out`.
fn put_schedule(out: &mut Vec<u8>, s: &Schedule) {
    put_u64(out, s.beta);
    put_u32(out, s.steps.len() as u32);
    for step in &s.steps {
        put_u32(out, step.transfers.len() as u32);
        for t in &step.transfers {
            put_u32(out, t.edge.0);
            put_u64(out, t.amount);
        }
    }
}

/// The cost / lower-bound / work-counter section that follows the schedule
/// in `Ok` and session responses.
fn put_outcome(p: &mut Vec<u8>, cost: u64, lower_bound: u64, work: &[u64; COUNTER_COUNT]) {
    put_u64(p, cost);
    put_u64(p, lower_bound);
    p.push(COUNTER_COUNT as u8);
    for &w in work {
        put_u64(p, w);
    }
}

/// Encodes an `Ok` response frame around an **already encoded** schedule
/// section ([`encode_schedule`] bytes) — the one encoder of the `Ok` frame
/// layout. [`encode_response`] calls it for `PlanResponse::Ok`; the server
/// calls it directly with the bytes its plan cache holds, so a cache hit is
/// a copy of the schedule section rather than a re-encode, and is
/// byte-identical to `encode_response` of the decoded response.
#[allow(clippy::too_many_arguments)]
pub fn encode_ok(
    version: u16,
    request_id: u64,
    cached: bool,
    schedule: &[u8],
    cost: u64,
    lower_bound: u64,
    work: &[u64; COUNTER_COUNT],
    server_id: u64,
) -> Vec<u8> {
    debug_assert!((MIN_VERSION..=VERSION).contains(&version));
    let mut p = begin_frame(48 + schedule.len() + 8 * COUNTER_COUNT, version);
    put_u64(&mut p, request_id);
    p.push(0);
    p.push(u8::from(cached));
    p.extend_from_slice(schedule);
    put_outcome(&mut p, cost, lower_bound, work);
    if version >= 2 {
        put_u64(&mut p, server_id);
    }
    finish_frame(p)
}

/// Encodes a session response frame (status 4) straight from the
/// session's schedule — the one encoder of that layout. The server calls it
/// under the session's lock, so an answer never copies the schedule it
/// serialises; [`encode_response`] calls it for `PlanResponse::Session`.
#[allow(clippy::too_many_arguments)]
pub fn encode_session(
    version: u16,
    request_id: u64,
    session_id: u64,
    generation: u64,
    level: SessionLevel,
    schedule: &Schedule,
    cost: u64,
    lower_bound: u64,
    work: &[u64; COUNTER_COUNT],
    server_id: u64,
) -> Vec<u8> {
    debug_assert!((SESSION_MIN_VERSION..=VERSION).contains(&version));
    let mut p = begin_frame(64 + schedule_len(schedule) + 8 * COUNTER_COUNT, version);
    put_u64(&mut p, request_id);
    p.push(4);
    put_u64(&mut p, session_id);
    put_u64(&mut p, generation);
    p.push(level as u8);
    put_schedule(&mut p, schedule);
    put_outcome(&mut p, cost, lower_bound, work);
    put_u64(&mut p, server_id);
    finish_frame(p)
}

fn decode_schedule(c: &mut Cursor) -> Result<Schedule, WireError> {
    let beta = c.u64()?;
    let num_steps = c.u32()? as usize;
    let mut steps = Vec::with_capacity(num_steps.min(1 << 16));
    for _ in 0..num_steps {
        let nt = c.u32()? as usize;
        let mut transfers = Vec::with_capacity(nt.min(1 << 16));
        for _ in 0..nt {
            let edge = c.u32()?;
            let amount = c.u64()?;
            transfers.push(kpbs::Transfer {
                edge: bipartite::EdgeId(edge),
                amount,
            });
        }
        steps.push(kpbs::Step { transfers });
    }
    Ok(Schedule { steps, beta })
}

/// Encodes a response as a full frame (length prefix included), in the
/// given protocol `version` — the version of the request being answered,
/// so an old client never sees fields it cannot parse.
pub fn encode_response(resp: &PlanResponse, version: u16) -> Vec<u8> {
    debug_assert!((MIN_VERSION..=VERSION).contains(&version));
    let p = match resp {
        PlanResponse::Ok {
            request_id,
            cached,
            schedule,
            cost,
            lower_bound,
            work,
            server_id,
        } => {
            return encode_ok(
                version,
                *request_id,
                *cached,
                &encode_schedule(schedule),
                *cost,
                *lower_bound,
                work,
                *server_id,
            )
        }
        PlanResponse::Rejected { request_id, reason } => {
            let mut p = begin_frame(32, version);
            put_u64(&mut p, *request_id);
            p.push(match reason {
                RejectReason::QueueFull => 1,
                RejectReason::MatrixTooLarge => 2,
            });
            p
        }
        PlanResponse::Error {
            request_id,
            message,
        } => {
            let mut p = begin_frame(32 + message.len(), version);
            put_u64(&mut p, *request_id);
            p.push(3);
            put_u32(&mut p, message.len() as u32);
            p.extend_from_slice(message.as_bytes());
            p
        }
        PlanResponse::Session {
            request_id,
            session_id,
            generation,
            level,
            schedule,
            cost,
            lower_bound,
            work,
            server_id,
        } => {
            return encode_session(
                version,
                *request_id,
                *session_id,
                *generation,
                *level,
                schedule,
                *cost,
                *lower_bound,
                work,
                *server_id,
            )
        }
        PlanResponse::SessionRejected {
            request_id,
            session_id,
            reason,
        } => {
            debug_assert!(version >= SESSION_MIN_VERSION);
            let mut p = begin_frame(32, version);
            put_u64(&mut p, *request_id);
            p.push(5);
            put_u64(&mut p, *session_id);
            p.push(*reason as u8);
            p
        }
    };
    finish_frame(p)
}

/// Decodes a response payload (no length prefix).
pub fn decode_response(payload: &[u8]) -> Result<PlanResponse, WireError> {
    let mut c = Cursor::new(payload);
    let version = check_header(&mut c)?;
    let request_id = c.u64()?;
    let status = c.u8()?;
    let resp = match status {
        0 => {
            let cached = c.u8()? != 0;
            let schedule = decode_schedule(&mut c)?;
            let cost = c.u64()?;
            let lower_bound = c.u64()?;
            let n = c.u8()? as usize;
            let mut work = [0u64; COUNTER_COUNT];
            for slot in work.iter_mut().take(n) {
                *slot = c.u64()?;
            }
            // Any counters beyond what this build knows are drained and
            // dropped (forward compatibility with a longer table).
            for _ in COUNTER_COUNT..n {
                c.u64()?;
            }
            let server_id = if version >= 2 { c.u64()? } else { 0 };
            PlanResponse::Ok {
                request_id,
                cached,
                schedule,
                cost,
                lower_bound,
                work,
                server_id,
            }
        }
        1 => PlanResponse::Rejected {
            request_id,
            reason: RejectReason::QueueFull,
        },
        2 => PlanResponse::Rejected {
            request_id,
            reason: RejectReason::MatrixTooLarge,
        },
        3 => {
            let len = c.u32()? as usize;
            let msg = String::from_utf8_lossy(c.take(len)?).into_owned();
            PlanResponse::Error {
                request_id,
                message: msg,
            }
        }
        4 => {
            let session_id = c.u64()?;
            let generation = c.u64()?;
            let level = SessionLevel::from_u8(c.u8()?)?;
            let schedule = decode_schedule(&mut c)?;
            let cost = c.u64()?;
            let lower_bound = c.u64()?;
            let n = c.u8()? as usize;
            let mut work = [0u64; COUNTER_COUNT];
            for slot in work.iter_mut().take(n) {
                *slot = c.u64()?;
            }
            for _ in COUNTER_COUNT..n {
                c.u64()?;
            }
            let server_id = c.u64()?;
            PlanResponse::Session {
                request_id,
                session_id,
                generation,
                level,
                schedule,
                cost,
                lower_bound,
                work,
                server_id,
            }
        }
        5 => {
            let session_id = c.u64()?;
            let reason = match c.u8()? {
                0 => SessionRejectReason::TableFull,
                1 => SessionRejectReason::UnknownSession,
                other => {
                    return Err(WireError::new(format!(
                        "unknown session reject reason {other}"
                    )))
                }
            };
            PlanResponse::SessionRejected {
                request_id,
                session_id,
                reason,
            }
        }
        other => return Err(WireError::new(format!("unknown status {other}"))),
    };
    c.done()?;
    Ok(resp)
}

// ------------------------------------------------------------------- i/o

/// What the server read off a connection: a binary frame or one of the
/// plaintext admin commands.
#[derive(Debug, PartialEq, Eq)]
pub enum Incoming {
    /// A binary frame payload (length prefix stripped).
    Frame(Vec<u8>),
    /// The plaintext `METRICS\n` admin command (Prometheus exposition).
    Metrics,
    /// The plaintext `FLIGHT\n` admin command (flight-recorder dump).
    Flight,
}

/// How long the server lets a connection sit mid-message (a frame or an
/// admin command started but not finished) before closing it as stalled.
pub(crate) const MID_MESSAGE_PATIENCE: std::time::Duration = std::time::Duration::from_secs(10);

/// Reads one frame from a blocking stream (the client side) and returns
/// its payload: a 4-byte big-endian length, checked against [`MAX_FRAME`]
/// before anything is allocated, then exactly that many bytes. A stream
/// that ends early — before the length or inside the payload — is
/// `UnexpectedEof`; a read timeout set on the stream surfaces as is.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut head = [0u8; 4];
    r.read_exact(&mut head)?;
    let len = u32::from_be_bytes(head);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Writes pre-framed bytes and flushes.
pub fn write_all<W: Write>(w: &mut W, bytes: &[u8]) -> io::Result<()> {
    w.write_all(bytes)?;
    w.flush()
}

/// An incremental, resumable frame decoder for non-blocking readers: the
/// server's only reader.
///
/// The I/O threads feed whatever bytes `read(2)` happened to return into
/// this state machine with [`FrameDecoder::extend`] and drain complete
/// messages with [`FrameDecoder::poll`] — a message split across any
/// number of reads (down to one byte at a time) decodes to exactly the
/// message that was encoded, and coalesced messages in one read come out
/// one `poll` at a time. The adversarial-chunking proptests in
/// `tests/decoder.rs` pin this.
///
/// Semantics:
/// - the first four bytes of a message are sniffed: `METR`/`FLIG` select
///   the plaintext admin commands, anything else is a big-endian `u32`
///   frame length;
/// - an admin prefix whose tail does not match is `InvalidData`
///   ("malformed admin command");
/// - a length above [`MAX_FRAME`] is `InvalidData` before any payload is
///   buffered, so an abusive peer cannot make the server allocate;
/// - errors are sticky: after an error the decoder refuses further work
///   (the connection is being torn down anyway).
///
/// End-of-stream is the caller's to interpret: on EOF,
/// [`FrameDecoder::is_mid_message`] distinguishes a clean close (no
/// buffered partial message) from a torn one.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily by `extend`.
    pos: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// A decoder with no buffered bytes.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends bytes received from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: either everything buffered was consumed
        // (cheap truncate) or the dead prefix got large enough to matter.
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 4096 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded message.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when a message has started but not finished — EOF now would
    /// tear it.
    pub fn is_mid_message(&self) -> bool {
        self.pending_bytes() > 0
    }

    /// Decodes the next complete message, `Ok(None)` when more bytes are
    /// needed. Call in a loop after [`FrameDecoder::extend`]: one read may
    /// complete several coalesced messages.
    pub fn poll(&mut self) -> io::Result<Option<Incoming>> {
        if self.poisoned {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "decoder poisoned by an earlier error",
            ));
        }
        match self.poll_inner() {
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
            ok => ok,
        }
    }

    fn poll_inner(&mut self) -> io::Result<Option<Incoming>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let admin = match &avail[..4] {
            b"METR" => Some((METRICS_COMMAND, Incoming::Metrics)),
            b"FLIG" => Some((FLIGHT_COMMAND, Incoming::Flight)),
            _ => None,
        };
        if let Some((command, incoming)) = admin {
            if avail.len() < command.len() {
                return Ok(None);
            }
            if &avail[..command.len()] != command {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "malformed admin command",
                ));
            }
            self.pos += command.len();
            return Ok(Some(incoming));
        }
        let len = u32::from_be_bytes(avail[..4].try_into().unwrap());
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
            ));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = avail[4..total].to_vec();
        self.pos += total;
        Ok(Some(Incoming::Frame(payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpbs::{Step, Transfer};

    fn sample_request() -> PlanRequest {
        let mut t = TrafficMatrix::zeros(3, 2);
        t.set(0, 0, 1_000_000);
        t.set(0, 1, 2_000_000);
        t.set(2, 1, 500_000);
        PlanRequest {
            wire_version: VERSION,
            request_id: 42,
            algo: Algo::Oggp,
            platform: WirePlatform {
                n1: 3,
                n2: 2,
                t1: 100.0,
                t2: 100.0,
                backbone: 200.0,
                beta_seconds: 0.05,
            },
            matrix: CsrMatrix::from_traffic(&t),
        }
    }

    #[test]
    fn request_round_trips() {
        let req = sample_request();
        let bytes = encode_request(&req);
        let payload = &bytes[4..];
        assert_eq!(
            u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize,
            payload.len()
        );
        let back = decode_request(payload).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn csr_round_trips_dense() {
        let mut t = TrafficMatrix::zeros(4, 4);
        t.set(1, 3, 7);
        t.set(3, 0, 9);
        let csr = CsrMatrix::from_traffic(&t);
        assert_eq!(csr.cells(), 16);
        csr.validate().unwrap();
        assert_eq!(csr.to_traffic(), t);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_request(&sample_request());
        bytes[4] = b'X';
        let err = decode_request(&bytes[4..]).unwrap_err();
        assert!(err.0.contains("magic"), "{err}");
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_request(&sample_request());
        bytes[9] = 99;
        let err = decode_request(&bytes[4..]).unwrap_err();
        assert!(err.0.contains("version"), "{err}");
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_request(&sample_request());
        for cut in [5, 10, 20, bytes.len() - 5] {
            assert!(decode_request(&bytes[4..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unsorted_columns_rejected() {
        let m = CsrMatrix {
            n1: 1,
            n2: 3,
            row_ptr: vec![0, 2],
            cols: vec![2, 1],
            bytes: vec![5, 5],
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn zero_bytes_rejected() {
        let m = CsrMatrix {
            n1: 1,
            n2: 3,
            row_ptr: vec![0, 1],
            cols: vec![0],
            bytes: vec![0],
        };
        assert!(m.validate().is_err());
    }

    /// A 2×2 request with every cell `bytes` on NICs of `speed` Mbit/s.
    fn extreme_request(speed: f64, backbone: f64, beta_seconds: f64, bytes: u64) -> PlanRequest {
        let t = TrafficMatrix::from_rows(2, 2, vec![bytes; 4]);
        PlanRequest {
            wire_version: VERSION,
            request_id: 9,
            algo: Algo::Oggp,
            platform: WirePlatform {
                n1: 2,
                n2: 2,
                t1: speed,
                t2: speed,
                backbone,
                beta_seconds,
            },
            matrix: CsrMatrix::from_traffic(&t),
        }
    }

    fn decode_error(req: &PlanRequest) -> String {
        decode_request(&encode_request(req)[4..]).unwrap_err().0
    }

    #[test]
    fn non_finite_cell_duration_rejected() {
        // 1e-300 Mbit/s passes `Topology::validate`; u64::MAX bytes over it
        // is an infinite number of seconds.
        let err = decode_error(&extreme_request(1e-300, 1.0, 0.05, u64::MAX));
        assert!(err.contains("cell duration overflows"), "{err}");
    }

    #[test]
    fn saturating_cell_ticks_rejected() {
        // 1e-3 Mbit/s is 125 B/s: a finite 1.5e17 s that does not fit u64
        // millisecond ticks.
        let err = decode_error(&extreme_request(1e-3, 1.0, 0.05, u64::MAX));
        assert!(err.contains("cell duration overflows"), "{err}");
    }

    #[test]
    fn tick_total_times_k_overflow_rejected() {
        // 1e17 bytes at 125 B/s is 8e17 ticks — each cell fits, and so
        // does their sum, but not (k + 1)·Σ under the planner's headroom.
        let req = extreme_request(1e-3, 1.0, 0.0, 100_000_000_000_000_000);
        assert_eq!(req.platform.to_platform().k(), 2);
        let err = decode_error(&req);
        assert!(err.contains("tick budget"), "{err}");
        // The same cells with the budget to spare decode.
        let ok = extreme_request(1e-3, 1.0, 0.0, 1_000_000_000_000_000);
        assert_eq!(decode_request(&encode_request(&ok)[4..]).unwrap(), ok);
    }

    #[test]
    fn byte_total_beyond_u64_rejected() {
        // Four cells of u64::MAX bytes are plannable one by one on a fast
        // platform, but their byte sum leaves u64.
        let err = decode_error(&extreme_request(1e12, 1e12, 0.0, u64::MAX));
        assert!(err.contains("tick budget"), "{err}");
    }

    #[test]
    fn overflowing_beta_rejected() {
        let err = decode_error(&extreme_request(100.0, 200.0, 1e300, 1_000_000));
        assert!(err.contains("beta overflows"), "{err}");
        // 1e15 s is 1e18 ticks: fits u64, but one β per step does not fit
        // the budget.
        let err = decode_error(&extreme_request(100.0, 200.0, 1e15, 1_000_000));
        assert!(err.contains("tick budget"), "{err}");
    }

    #[test]
    fn total_bytes_saturates() {
        let m = extreme_request(100.0, 200.0, 0.0, u64::MAX).matrix;
        assert_eq!(m.total_bytes(), u64::MAX);
    }

    #[test]
    fn encode_ok_is_the_ok_arm_of_encode_response() {
        let schedule = Schedule {
            steps: vec![Step {
                transfers: vec![Transfer {
                    edge: bipartite::EdgeId(1),
                    amount: 4,
                }],
            }],
            beta: 3,
        };
        let mut work = [0u64; COUNTER_COUNT];
        work[2] = 8;
        for version in MIN_VERSION..=VERSION {
            for cached in [false, true] {
                let resp = PlanResponse::Ok {
                    request_id: 5,
                    cached,
                    schedule: schedule.clone(),
                    cost: 7,
                    lower_bound: 6,
                    work,
                    server_id: 12,
                };
                assert_eq!(
                    encode_ok(
                        version,
                        5,
                        cached,
                        &encode_schedule(&schedule),
                        7,
                        6,
                        &work,
                        12
                    ),
                    encode_response(&resp, version)
                );
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        let schedule = Schedule {
            steps: vec![Step {
                transfers: vec![Transfer {
                    edge: bipartite::EdgeId(3),
                    amount: 17,
                }],
            }],
            beta: 2,
        };
        let mut work = [0u64; COUNTER_COUNT];
        work[0] = 5;
        let cases = [
            PlanResponse::Ok {
                request_id: 7,
                cached: true,
                schedule,
                cost: 19,
                lower_bound: 17,
                work,
                server_id: 991,
            },
            PlanResponse::Rejected {
                request_id: 8,
                reason: RejectReason::QueueFull,
            },
            PlanResponse::Rejected {
                request_id: 9,
                reason: RejectReason::MatrixTooLarge,
            },
            PlanResponse::Error {
                request_id: 10,
                message: "bad things".into(),
            },
        ];
        for case in &cases {
            let bytes = encode_response(case, VERSION);
            let back = decode_response(&bytes[4..]).unwrap();
            assert_eq!(&back, case);
        }
    }

    fn sample_session_ops() -> Vec<SessionOp> {
        let plan = sample_request();
        vec![
            SessionOp::Open {
                algo: plan.algo,
                platform: plan.platform,
                matrix: plan.matrix,
            },
            SessionOp::Delta {
                session_id: 17,
                deltas: vec![
                    WireDelta::SetCell {
                        sender: 1,
                        receiver: 0,
                        bytes: 3_000_000,
                    },
                    WireDelta::SetCell {
                        sender: 0,
                        receiver: 1,
                        bytes: 0,
                    },
                    WireDelta::GrowNodes {
                        senders: 2,
                        receivers: 0,
                    },
                    WireDelta::DropSender(3),
                    WireDelta::DropReceiver(1),
                ],
            },
            SessionOp::Commit { session_id: 17 },
            SessionOp::Close { session_id: 17 },
        ]
    }

    #[test]
    fn session_requests_round_trip() {
        for (i, op) in sample_session_ops().into_iter().enumerate() {
            let req = SessionRequest {
                wire_version: VERSION,
                request_id: 100 + i as u64,
                op,
            };
            let bytes = encode_session_request(&req);
            match decode_frame(&bytes[4..]).unwrap() {
                Request::Session(back) => assert_eq!(back, req),
                other => panic!("expected a session op, got {other:?}"),
            }
        }
    }

    #[test]
    fn session_kinds_require_v3() {
        for op in sample_session_ops() {
            let req = SessionRequest {
                wire_version: VERSION,
                request_id: 9,
                op,
            };
            for old in [1u16, 2] {
                let mut bytes = encode_session_request(&req);
                // Version lives right after the 4-byte length prefix and
                // 4-byte magic; rewrite it to an older protocol level.
                bytes[8..10].copy_from_slice(&old.to_be_bytes());
                let err = decode_frame(&bytes[4..]).unwrap_err();
                assert!(err.0.contains("requires protocol version"), "{err}");
            }
        }
    }

    #[test]
    fn decode_frame_classifies_plans_and_decode_request_refuses_sessions() {
        let plan = sample_request();
        let bytes = encode_request(&plan);
        match decode_frame(&bytes[4..]).unwrap() {
            Request::Plan(back) => assert_eq!(back, plan),
            other => panic!("expected a plan, got {other:?}"),
        }

        let session = SessionRequest {
            wire_version: VERSION,
            request_id: 5,
            op: SessionOp::Close { session_id: 1 },
        };
        let bytes = encode_session_request(&session);
        let err = decode_request(&bytes[4..]).unwrap_err();
        assert!(err.0.contains("session"), "{err}");
    }

    #[test]
    fn session_responses_round_trip() {
        let mut work = [0u64; COUNTER_COUNT];
        work[3] = 11;
        let cases = [
            PlanResponse::Session {
                request_id: 21,
                session_id: 4,
                generation: 9,
                level: SessionLevel::RePeel,
                schedule: Schedule {
                    steps: vec![Step {
                        transfers: vec![Transfer {
                            edge: bipartite::EdgeId(0),
                            amount: 5,
                        }],
                    }],
                    beta: 1,
                },
                cost: 6,
                lower_bound: 6,
                work,
                server_id: 77,
            },
            PlanResponse::SessionRejected {
                request_id: 22,
                session_id: 0,
                reason: SessionRejectReason::TableFull,
            },
            PlanResponse::SessionRejected {
                request_id: 23,
                session_id: 99,
                reason: SessionRejectReason::UnknownSession,
            },
        ];
        for case in &cases {
            let bytes = encode_response(case, VERSION);
            let back = decode_response(&bytes[4..]).unwrap();
            assert_eq!(&back, case);
        }
    }

    #[test]
    fn every_session_level_survives_the_wire() {
        for level in [
            SessionLevel::Opened,
            SessionLevel::Repair,
            SessionLevel::RePeel,
            SessionLevel::Cold,
            SessionLevel::Committed,
            SessionLevel::Closed,
        ] {
            assert_eq!(SessionLevel::from_u8(level as u8).unwrap(), level);
        }
        assert!(SessionLevel::from_u8(6).is_err());
    }

    #[test]
    fn v1_round_trips_without_server_id() {
        // A v1 request encodes with version 1 and decodes back unchanged —
        // old clients keep working against the v2 server.
        let mut req = sample_request();
        req.wire_version = 1;
        let bytes = encode_request(&req);
        let back = decode_request(&bytes[4..]).unwrap();
        assert_eq!(back, req);

        // A v1-encoded Ok response omits the server id; decoding yields 0.
        let resp = PlanResponse::Ok {
            request_id: 7,
            cached: false,
            schedule: Schedule {
                steps: vec![],
                beta: 1,
            },
            cost: 1,
            lower_bound: 1,
            work: [0u64; COUNTER_COUNT],
            server_id: 555,
        };
        let v1 = encode_response(&resp, 1);
        let v2 = encode_response(&resp, 2);
        assert_eq!(v2.len(), v1.len() + 8, "v2 appends exactly the id");
        match decode_response(&v1[4..]).unwrap() {
            PlanResponse::Ok { server_id, .. } => assert_eq!(server_id, 0),
            other => panic!("expected Ok, got {other:?}"),
        }
        match decode_response(&v2[4..]).unwrap() {
            PlanResponse::Ok { server_id, .. } => assert_eq!(server_id, 555),
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn schedule_encoding_is_deterministic() {
        let s = Schedule {
            steps: vec![
                Step {
                    transfers: vec![
                        Transfer {
                            edge: bipartite::EdgeId(0),
                            amount: 4,
                        },
                        Transfer {
                            edge: bipartite::EdgeId(2),
                            amount: 9,
                        },
                    ],
                },
                Step { transfers: vec![] },
            ],
            beta: 1,
        };
        assert_eq!(encode_schedule(&s), encode_schedule(&s.clone()));
    }

    #[test]
    fn read_frame_returns_payloads_in_order() {
        let first = encode_response(
            &PlanResponse::Rejected {
                request_id: 1,
                reason: RejectReason::QueueFull,
            },
            VERSION,
        );
        let second = encode_request(&sample_request());
        let stream = [first.clone(), second.clone()].concat();
        let mut r = &stream[..];
        assert_eq!(read_frame(&mut r).unwrap(), &first[4..]);
        assert_eq!(read_frame(&mut r).unwrap(), &second[4..]);
        // A clean end of stream is still an error to a reader expecting a
        // frame.
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn read_frame_rejects_a_torn_frame() {
        let framed = encode_request(&sample_request());
        // Torn inside the length prefix and inside the payload.
        for cut in [2, 4, framed.len() - 1] {
            let mut r = &framed[..cut];
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        // The cap is checked on the length alone: no payload follows, so a
        // reader that allocated or read first would report EOF instead.
        let mut r: &[u8] = &(MAX_FRAME + 1).to_be_bytes();
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
        // Exactly at the cap is a length like any other.
        let mut r: &[u8] = &MAX_FRAME.to_be_bytes();
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn decoder_resumes_across_one_byte_feeds() {
        let framed = encode_request(&sample_request());
        let mut d = FrameDecoder::new();
        for (i, b) in framed.iter().enumerate() {
            d.extend(&[*b]);
            let out = d.poll().unwrap();
            if i + 1 < framed.len() {
                assert!(out.is_none(), "message completed early at byte {i}");
                assert!(d.is_mid_message());
            } else {
                match out {
                    Some(Incoming::Frame(p)) => assert_eq!(p, &framed[4..]),
                    other => panic!("expected frame, got {other:?}"),
                }
            }
        }
        assert!(!d.is_mid_message());
    }

    #[test]
    fn decoder_splits_coalesced_messages() {
        let framed = encode_request(&sample_request());
        let mut blob = Vec::new();
        blob.extend_from_slice(&framed);
        blob.extend_from_slice(METRICS_COMMAND);
        blob.extend_from_slice(&framed);
        let mut d = FrameDecoder::new();
        d.extend(&blob);
        assert!(matches!(d.poll().unwrap(), Some(Incoming::Frame(_))));
        assert!(matches!(d.poll().unwrap(), Some(Incoming::Metrics)));
        assert!(matches!(d.poll().unwrap(), Some(Incoming::Frame(_))));
        assert!(d.poll().unwrap().is_none());
        assert!(!d.is_mid_message());
    }

    #[test]
    fn decoder_rejects_oversize_and_torn_admin_and_stays_poisoned() {
        let mut d = FrameDecoder::new();
        d.extend(&(MAX_FRAME + 1).to_be_bytes());
        assert!(d.poll().is_err());
        // Sticky: even valid bytes are refused after an error.
        d.extend(METRICS_COMMAND);
        assert!(d.poll().is_err());

        let mut d = FrameDecoder::new();
        d.extend(b"METRxxx\n");
        assert!(d.poll().is_err());

        // Plaintext that is no admin command, such as `STATS\n`, reads as
        // a length above the cap.
        let mut d = FrameDecoder::new();
        d.extend(b"STATS\n");
        assert!(d.poll().is_err());
    }

    #[test]
    fn decoder_admin_prefix_waits_for_tail() {
        let mut d = FrameDecoder::new();
        d.extend(b"FLIG");
        assert!(d.poll().unwrap().is_none());
        assert!(d.is_mid_message());
        d.extend(b"HT\n");
        assert!(matches!(d.poll().unwrap(), Some(Incoming::Flight)));
        assert!(!d.is_mid_message());
    }
}
