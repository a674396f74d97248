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
//! # Version
//!
//! The protocol version is [`VERSION`] (3), the only one spoken: every
//! request must carry it, and every response carries it. A frame stamped
//! with any other version is answered with an `Error` frame ("unsupported
//! version N").
//!
//! # Plan request payload (kind 0)
//!
//! | field       | type           | notes                                   |
//! |-------------|----------------|-----------------------------------------|
//! | magic       | `[u8; 4]`      | `RDST`                                  |
//! | version     | `u16`          | 3                                       |
//! | kind        | `u8`           | 0 = plan, 1–4 = session ops (below)     |
//! | request id  | `u64`          | echoed verbatim in the response         |
//! | algorithm   | `u8`           | 0 = OGGP, 1 = GGP                       |
//! | n1, n2      | `u32 × 2`      | senders × receivers                     |
//! | t1, t2, T, β| `f64 × 4`      | platform Mbit/s throughputs, β seconds  |
//! | nnz         | `u32`          | non-zero message count                  |
//! | row_ptr     | `u32 × (n1+1)` | CSR row offsets into the entry list     |
//! | entries     | `(u32, u64) × nnz` | column, bytes — strictly ascending columns per row |
//!
//! # Session request payloads (kinds 1–4)
//!
//! `OPEN` (kind 1) carries exactly a plan request's body after the kind
//! byte. `DELTA` (kind 2) carries `request id (u64)`, `session id (u64)`,
//! `ndeltas (u32)` and then per delta a tag byte: 0 = set-cell
//! `(sender u32, receiver u32, bytes u64)`, 1 = grow-nodes
//! `(senders u32, receivers u32)`, 2 = drop-sender `(sender u32)`,
//! 3 = drop-receiver `(receiver u32)`. `COMMIT` (kind 3) and `CLOSE`
//! (kind 4) carry `request id (u64), session id (u64)`.
//!
//! # Response payload
//!
//! | field       | type      | notes                                        |
//! |-------------|-----------|----------------------------------------------|
//! | magic       | `[u8; 4]` | `RDST`                                       |
//! | version     | `u16`     | 3                                            |
//! | request id  | `u64`     | copied from the request                      |
//! | status      | `u8`      | 0 = ok, 1 = queue full, 2 = matrix too large, 3 = error, 4 = session ok, 5 = session rejected |
//! | ok: cached  | `u8`      | 1 when served from the plan cache            |
//! | ok: schedule| see [`encode_schedule`] | byte-identical to a cold plan  |
//! | ok: cost    | `u64`     | `Σ (β + step duration)` in ticks             |
//! | ok: lower bound | `u64` | Cohen–Jeannot–Padoy bound in ticks           |
//! | ok: work    | `u8` + `u64 × n` | per-request counter deltas, [`Counter::ALL`](telemetry::counters::Counter::ALL) order |
//! | ok: server id | `u64`   | server-minted correlation id (flight record, spans) |
//! | error: message | `u32` + utf-8 | decode/validation failure detail         |
//!
//! Statuses 1 and 2 carry nothing after the status byte. A session
//! response (status 4) carries `session id (u64)`, `generation (u64)`, a
//! repair-`level` byte, then the same schedule/cost/lower-bound/work/
//! server-id tail as a plan `Ok`. Status 5 is a session rejection:
//! `session id (u64)` plus a reason byte (0 = table full, 1 = unknown
//! session).
//!
//! The CSR encoding is the *canonical* construction: rows in sender order,
//! strictly ascending columns inside a row, all byte counts positive. The
//! decoder rejects anything else, and a matrix that is too slow or too
//! large to plan in ticks ([`kpbs::traffic::check_tick_budget`]). The
//! plan-cache key is [`PlanRequest::cache_key`].

use kpbs::fingerprint::Mixer;
use kpbs::traffic::{self, TickScale};
use kpbs::{Platform, Schedule, TrafficMatrix};
use std::io::{self, Read, Write};
use telemetry::counters::COUNTER_COUNT;

/// Frame magic: first four payload bytes of every binary frame.
pub const MAGIC: [u8; 4] = *b"RDST";
/// The protocol version: the only one the server accepts and sends.
pub const VERSION: u16 = 3;
/// Hard ceiling on any frame payload (16 MiB) — a malformed length prefix
/// must not make the server allocate unboundedly.
pub const MAX_FRAME: u32 = 16 << 20;
/// The discretisation every frame is planned at: bytes and β seconds become
/// millisecond ticks. Fixed here because the decoder's tick-budget check
/// and the worker's instance must agree.
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
    /// have finite, positive speeds, so the constructor's positivity
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
}

/// A decoded planning request.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
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
    /// The plan-cache key of this request: [`Mixer`] over the request's
    /// own words in frame order — `algo`, `n1`, `n2`, the bits of `t1`,
    /// `t2`, `T` and β, `nnz`, then each cell as `row << 32 | col`
    /// followed by its `bytes`. These words determine the plan, so equal
    /// keys mean byte-identical plans. The key is finer than the instance:
    /// two requests that build one instance (say β `0.0` and `-0.0`) may
    /// get two cache entries, but two that plan differently never share
    /// one. No tick conversion runs; the walk of a frame computes the same
    /// key ([`PlanBody::key`]).
    pub fn cache_key(&self) -> u128 {
        let m = &self.matrix;
        let mut h = key_start(self.algo, &self.platform, m.cols.len());
        for row in 0..m.n1 as usize {
            for e in m.row_ptr[row] as usize..m.row_ptr[row + 1] as usize {
                key_cell(&mut h, row, m.cols[e], m.bytes[e]);
            }
        }
        h.digest()
    }
}

/// The words of a request's key before its cells ([`PlanRequest::cache_key`]).
fn key_start(algo: Algo, p: &WirePlatform, nnz: usize) -> Mixer {
    let mut h = Mixer::new();
    for w in [algo as u64, p.n1.into(), p.n2.into()] {
        h.word(w);
    }
    for f in [p.t1, p.t2, p.backbone, p.beta_seconds] {
        h.word(f.to_bits());
    }
    h.word(nnz as u64);
    h
}

/// Folds one cell into a request's key ([`PlanRequest::cache_key`]).
#[inline]
fn key_cell(h: &mut Mixer, row: usize, col: u32, bytes: u64) {
    h.word(((row as u64) << 32) | u64::from(col));
    h.word(bytes);
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

/// The session operation a frame of kind 1–4 requests.
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

/// A decoded session request (wire kinds 1–4).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// Client-chosen identifier, echoed in the response.
    pub request_id: u64,
    /// The requested operation.
    pub op: SessionOp,
}

/// Any decodable binary request frame: a stateless plan (kind 0) or a
/// session op (kinds 1–4).
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
        /// Server-minted request id. Joins this response to the server's
        /// flight record and spans.
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
    /// A session op succeeded (status 4).
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
    /// A session op was refused (status 5).
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

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Starts a frame: a placeholder for the length prefix, the magic and
/// [`VERSION`]. [`finish_frame`] fills the prefix in.
fn begin_frame(capacity: usize) -> Vec<u8> {
    let mut p = Vec::with_capacity(capacity);
    p.extend_from_slice(&[0; 4]);
    p.extend_from_slice(&MAGIC);
    p.extend_from_slice(&VERSION.to_be_bytes());
    p
}

fn finish_frame(mut p: Vec<u8>) -> Vec<u8> {
    let len = (p.len() - 4) as u32;
    p[..4].copy_from_slice(&len.to_be_bytes());
    p
}

fn check_header(c: &mut Cursor) -> Result<(), WireError> {
    if c.take(4)? != MAGIC {
        return Err(WireError::new("bad magic"));
    }
    match c.u16()? {
        VERSION => Ok(()),
        v => Err(WireError::new(format!("unsupported version {v}"))),
    }
}

// --------------------------------------------------------------- encoding

/// Encodes a request as a full frame (length prefix included).
pub fn encode_request(req: &PlanRequest) -> Vec<u8> {
    let capacity = 64 + 4 * req.matrix.row_ptr.len() + 12 * req.matrix.cols.len();
    let mut p = begin_frame(capacity);
    p.push(0); // kind: plan
    put_u64(&mut p, req.request_id);
    put_plan_body(&mut p, req.algo, &req.platform, &req.matrix);
    finish_frame(p)
}

/// Appends the algo/platform/matrix body shared by plan and `OPEN` frames
/// (everything after the request id): what `walk_plan_body` reads.
fn put_plan_body(p: &mut Vec<u8>, algo: Algo, platform: &WirePlatform, matrix: &CsrMatrix) {
    p.push(algo as u8);
    put_u32(p, platform.n1);
    put_u32(p, platform.n2);
    put_f64(p, platform.t1);
    put_f64(p, platform.t2);
    put_f64(p, platform.backbone);
    put_f64(p, platform.beta_seconds);
    put_u32(p, matrix.cols.len() as u32);
    for &o in &matrix.row_ptr {
        put_u32(p, o);
    }
    for (&c, &b) in matrix.cols.iter().zip(&matrix.bytes) {
        put_u32(p, c);
        put_u64(p, b);
    }
}

/// Encodes a session request as a full frame (length prefix included).
pub fn encode_session_request(req: &SessionRequest) -> Vec<u8> {
    let mut p = begin_frame(64);
    match &req.op {
        SessionOp::Open {
            algo,
            platform,
            matrix,
        } => {
            p.push(1); // kind: session open
            put_u64(&mut p, req.request_id);
            put_plan_body(&mut p, *algo, platform, matrix);
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
        SessionOp::Commit { session_id } | SessionOp::Close { session_id } => {
            let commit = matches!(req.op, SessionOp::Commit { .. });
            p.push(if commit { 3 } else { 4 }); // kind: session commit / close
            put_u64(&mut p, req.request_id);
            put_u64(&mut p, *session_id);
        }
    }
    finish_frame(p)
}

/// Decodes any binary request payload — a stateless plan (kind 0) or a
/// session op (kinds 1–4): [`walk_frame`], with a plan's matrix copied
/// out of the frame.
pub fn decode_frame(payload: &[u8]) -> Result<Request, WireError> {
    Ok(match walk_frame(payload)? {
        Frame::Plan { request_id, body } => Request::Plan(body.to_request(request_id)),
        Frame::Session(req) => Request::Session(req),
    })
}

/// A plan or `OPEN` body that passed every check of the decoder in one
/// walk of its bytes, keyed in that same walk; its CSR sections are still
/// the frame's bytes. Admission probes the plan cache with
/// [`PlanBody::key`] and copies the matrix out ([`PlanBody::to_request`])
/// only when the probe misses.
#[derive(Debug, Clone, Copy)]
pub struct PlanBody<'a> {
    /// Requested algorithm.
    pub algo: Algo,
    /// Platform parameters.
    pub platform: WirePlatform,
    /// Total payload bytes, saturating (as [`CsrMatrix::total_bytes`]).
    pub total_bytes: u64,
    /// The plan-cache key: [`PlanRequest::cache_key`] of the request this
    /// body decodes into.
    pub key: u128,
    /// `n1 + 1` big-endian `u32` row offsets.
    row_ptr: &'a [u8],
    /// `nnz` entries, each a big-endian `u32` column and `u64` byte count.
    entries: &'a [u8],
}

impl PlanBody<'_> {
    /// The checked CSR matrix, copied out of the frame.
    fn matrix(&self) -> CsrMatrix {
        let entries = self.entries.chunks_exact(12);
        CsrMatrix {
            n1: self.platform.n1,
            n2: self.platform.n2,
            row_ptr: self.row_ptr.chunks_exact(4).map(be_u32).collect(),
            cols: entries.clone().map(be_u32).collect(),
            bytes: entries.map(|e| be_u64(&e[4..])).collect(),
        }
    }

    /// The request [`decode_frame`] makes of this body in a plan frame
    /// carrying `request_id`.
    pub fn to_request(&self, request_id: u64) -> PlanRequest {
        PlanRequest {
            request_id,
            algo: self.algo,
            platform: self.platform,
            matrix: self.matrix(),
        }
    }
}

/// A binary request frame after [`walk_frame`]: a plan checked and keyed
/// in place, or a decoded session op.
#[derive(Debug, Clone)]
pub enum Frame<'a> {
    /// A stateless plan request (kind 0), checked and keyed, not yet
    /// copied out of the frame.
    Plan {
        /// Client-chosen identifier, echoed in the response.
        request_id: u64,
        /// The walked body.
        body: PlanBody<'a>,
    },
    /// A session operation (kinds 1–4).
    Session(SessionRequest),
}

/// Checks any binary request payload in one walk of its bytes. A plan
/// (kind 0) is keyed in that walk and borrowed from `payload`, so a cache
/// hit never copies its matrix and a valid plan frame costs no
/// allocation; a session op is decoded. Every frame [`decode_frame`]
/// refuses is refused here with the same error.
pub fn walk_frame(payload: &[u8]) -> Result<Frame<'_>, WireError> {
    let mut c = Cursor::new(payload);
    check_header(&mut c)?;
    let kind = c.u8()?;
    if kind == 0 {
        let request_id = c.u64()?;
        let body = walk_plan_body(&mut c)?;
        return Ok(Frame::Plan { request_id, body });
    }
    if !(1..=4).contains(&kind) {
        return Err(WireError::new(format!("unknown request kind {kind}")));
    }
    let request_id = c.u64()?;
    let op = match kind {
        1 => {
            let body = walk_plan_body(&mut c)?;
            SessionOp::Open {
                algo: body.algo,
                platform: body.platform,
                matrix: body.matrix(),
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
    Ok(Frame::Session(SessionRequest { request_id, op }))
}

fn be_u32(b: &[u8]) -> u32 {
    u32::from_be_bytes(b[..4].try_into().unwrap())
}

fn be_u64(b: &[u8]) -> u64 {
    u64::from_be_bytes(b[..8].try_into().unwrap())
}

/// The one checker of the algo/platform/matrix body shared by plan and
/// `OPEN` frames (everything after the request id), consuming the cursor
/// to the end. Errors come in a fixed order — platform, section length,
/// row offsets, then per row column order and range, zero bytes, and the
/// tick budget — whatever else is wrong with the frame.
///
/// The entries are read once: each is checked and hashed into the key
/// ([`PlanRequest::cache_key`]) in the same pass, which also gathers what
/// [`kpbs::traffic::check_tick_budget`] needs. No cell is converted to
/// ticks.
fn walk_plan_body<'a>(c: &mut Cursor<'a>) -> Result<PlanBody<'a>, WireError> {
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
    // What `Topology::validate` accepts of a two-cluster topology with
    // both clusters populated: finite, positive speeds.
    if ![t1, t2, backbone].iter().all(|s| s.is_finite() && *s > 0.0) {
        return Err(WireError::new("invalid platform throughputs"));
    }
    if !(beta_seconds >= 0.0 && beta_seconds.is_finite()) {
        return Err(WireError::new("invalid beta"));
    }
    let nnz = c.u32()? as usize;
    let rows = n1 as usize;
    if c.buf.len() - c.pos != (rows + 1) * 4 + nnz * 12 {
        return Err(WireError::new("matrix section length mismatch"));
    }
    let row_ptr = c.take((rows + 1) * 4)?;
    let entries = c.take(nnz * 12)?;
    let offset = |i: usize| be_u32(&row_ptr[4 * i..]) as usize;
    if offset(0) != 0 || offset(rows) != nnz {
        return Err(WireError::new("row_ptr endpoints invalid"));
    }
    if (0..rows).any(|i| offset(i) > offset(i + 1)) {
        return Err(WireError::new("row_ptr not monotone"));
    }
    let platform = WirePlatform {
        n1,
        n2,
        t1,
        t2,
        backbone,
        beta_seconds,
    };
    let out_of_range = |row| WireError::new(format!("row {row} column out of range"));

    let mut key = key_start(algo, &platform, nnz);
    let (mut row, mut row_end, mut last_col) = (0, offset(1), None::<u32>);
    let (mut zero, mut largest, mut sum) = (false, 0u64, 0u128);
    for (e, entry) in entries.chunks_exact(12).enumerate() {
        // Close the rows that end here. Columns ascend inside a row, so
        // its last column speaks for its range.
        while e == row_end {
            if last_col.is_some_and(|col| col >= n2) {
                return Err(out_of_range(row));
            }
            row += 1;
            row_end = offset(row + 1);
            last_col = None;
        }
        let col = be_u32(entry);
        if last_col.is_some_and(|prev| prev >= col) {
            return Err(WireError::new(format!("row {row} columns not ascending")));
        }
        last_col = Some(col);
        let bytes = be_u64(&entry[4..]);
        zero |= bytes == 0;
        largest = largest.max(bytes);
        sum += u128::from(bytes);
        key_cell(&mut key, row, col, bytes);
    }
    if last_col.is_some_and(|col| col >= n2) {
        return Err(out_of_range(row));
    }
    if zero {
        return Err(WireError::new("zero-byte entry"));
    }
    let p = platform.to_platform();
    traffic::check_tick_budget(&p, TICK_SCALE, beta_seconds, nnz, largest, sum)
        .map_err(|e| WireError::new(e.message()))?;
    Ok(PlanBody {
        algo,
        platform,
        total_bytes: u64::try_from(sum).unwrap_or(u64::MAX),
        key: key.digest(),
        row_ptr,
        entries,
    })
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

/// Reads the section [`put_outcome`] writes: cost, lower bound and work.
/// Counters beyond what this build knows are drained and dropped (forward
/// compatibility with a longer table).
fn decode_outcome(c: &mut Cursor) -> Result<(u64, u64, [u64; COUNTER_COUNT]), WireError> {
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
    Ok((cost, lower_bound, work))
}

/// Encodes an `Ok` response frame around an **already encoded** schedule
/// section ([`encode_schedule`] bytes) — the one encoder of the `Ok` frame
/// layout. [`encode_response`] calls it for `PlanResponse::Ok`; the server
/// calls it directly with the bytes its plan cache holds, so a cache hit is
/// a copy of the schedule section rather than a re-encode, and is
/// byte-identical to `encode_response` of the decoded response.
pub fn encode_ok(
    request_id: u64,
    cached: bool,
    schedule: &[u8],
    cost: u64,
    lower_bound: u64,
    work: &[u64; COUNTER_COUNT],
    server_id: u64,
) -> Vec<u8> {
    let mut p = begin_frame(48 + schedule.len() + 8 * COUNTER_COUNT);
    put_u64(&mut p, request_id);
    p.push(0);
    p.push(u8::from(cached));
    p.extend_from_slice(schedule);
    put_outcome(&mut p, cost, lower_bound, work);
    put_u64(&mut p, server_id);
    finish_frame(p)
}

/// Encodes a session response frame (status 4) straight from the
/// session's schedule — the one encoder of that layout. The server calls it
/// under the session's lock, so an answer never copies the schedule it
/// serialises; [`encode_response`] calls it for `PlanResponse::Session`.
#[allow(clippy::too_many_arguments)]
pub fn encode_session(
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
    let mut p = begin_frame(64 + schedule_len(schedule) + 8 * COUNTER_COUNT);
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

/// Encodes a response as a full frame (length prefix included). `version`
/// must be [`VERSION`], the only one there is.
pub fn encode_response(resp: &PlanResponse, version: u16) -> Vec<u8> {
    debug_assert_eq!(version, VERSION);
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
            let mut p = begin_frame(32);
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
            let mut p = begin_frame(32 + message.len());
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
            let mut p = begin_frame(32);
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
    check_header(&mut c)?;
    let request_id = c.u64()?;
    let status = c.u8()?;
    let resp = match status {
        0 => {
            let cached = c.u8()? != 0;
            let schedule = decode_schedule(&mut c)?;
            let (cost, lower_bound, work) = decode_outcome(&mut c)?;
            let server_id = c.u64()?;
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
            let (cost, lower_bound, work) = decode_outcome(&mut c)?;
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
pub(crate) mod tests {
    use super::*;
    use kpbs::{Step, Transfer};

    /// Decodes a payload that must hold a plan request.
    fn decode_plan(payload: &[u8]) -> Result<PlanRequest, WireError> {
        match decode_frame(payload)? {
            Request::Plan(req) => Ok(req),
            other => panic!("expected a plan, got {other:?}"),
        }
    }

    fn sample_request() -> PlanRequest {
        let mut t = TrafficMatrix::zeros(3, 2);
        t.set(0, 0, 1_000_000);
        t.set(0, 1, 2_000_000);
        t.set(2, 1, 500_000);
        PlanRequest {
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
        let back = decode_plan(payload).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn csr_round_trips_dense() {
        let mut t = TrafficMatrix::zeros(4, 4);
        t.set(1, 3, 7);
        t.set(3, 0, 9);
        let csr = CsrMatrix::from_traffic(&t);
        assert_eq!(csr.cells(), 16);
        let back = decode_plan(&csr_payload(4, &csr.row_ptr, &csr.cols, &csr.bytes)).unwrap();
        assert_eq!(back.matrix, csr);
        assert_eq!(csr.to_traffic(), t);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_request(&sample_request());
        bytes[4] = b'X';
        let err = decode_plan(&bytes[4..]).unwrap_err();
        assert!(err.0.contains("magic"), "{err}");
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_request(&sample_request());
        bytes[9] = 99;
        let err = decode_plan(&bytes[4..]).unwrap_err();
        assert!(err.0.contains("version"), "{err}");
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_request(&sample_request());
        for cut in [5, 10, 20, bytes.len() - 5] {
            assert!(decode_plan(&bytes[4..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unsorted_columns_rejected() {
        let err = decode_plan(&csr_payload(3, &[0, 2], &[2, 1], &[5, 5])).unwrap_err();
        assert_eq!(err.0, "row 0 columns not ascending");
    }

    #[test]
    fn zero_bytes_rejected() {
        let err = decode_plan(&csr_payload(3, &[0, 1], &[0], &[0])).unwrap_err();
        assert_eq!(err.0, "zero-byte entry");
    }

    /// A 2×2 request with every cell `bytes` on NICs of `speed` Mbit/s.
    fn extreme_request(speed: f64, backbone: f64, beta_seconds: f64, bytes: u64) -> PlanRequest {
        let t = TrafficMatrix::from_rows(2, 2, vec![bytes; 4]);
        PlanRequest {
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
        decode_plan(&encode_request(req)[4..]).unwrap_err().0
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
        assert_eq!(decode_plan(&encode_request(&ok)[4..]).unwrap(), ok);
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
                encode_ok(5, cached, &encode_schedule(&schedule), 7, 6, &work, 12),
                encode_response(&resp, VERSION)
            );
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
    fn other_versions_are_refused() {
        let plan = encode_request(&sample_request());
        let open = encode_session_request(&SessionRequest {
            request_id: 9,
            op: sample_session_ops().remove(0),
        });
        for frame in [plan, open] {
            for version in [1u16, 2, 4] {
                let mut bytes = frame.clone();
                // The version follows the length prefix and the magic.
                bytes[8..10].copy_from_slice(&version.to_be_bytes());
                let err = decode_frame(&bytes[4..]).unwrap_err();
                assert_eq!(err.0, format!("unsupported version {version}"));
            }
        }
    }

    #[test]
    fn decode_frame_classifies_plans_and_sessions() {
        let plan = sample_request();
        let bytes = encode_request(&plan);
        assert_eq!(decode_frame(&bytes[4..]).unwrap(), Request::Plan(plan));

        let session = SessionRequest {
            request_id: 5,
            op: SessionOp::Close { session_id: 1 },
        };
        let bytes = encode_session_request(&session);
        assert_eq!(
            decode_frame(&bytes[4..]).unwrap(),
            Request::Session(session)
        );
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

    /// FNV-1a over the frames of one sample of every request kind (all four
    /// delta tags) and every response status: any change to a v3 byte on
    /// the wire moves the digest.
    #[test]
    fn v3_frames_match_their_recorded_digest() {
        let mut frames = encode_request(&sample_request());
        for (i, op) in sample_session_ops().into_iter().enumerate() {
            frames.extend(encode_session_request(&SessionRequest {
                request_id: 100 + i as u64,
                op,
            }));
        }
        let schedule = Schedule {
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
                Step {
                    transfers: vec![Transfer {
                        edge: bipartite::EdgeId(1),
                        amount: 3,
                    }],
                },
            ],
            beta: 2,
        };
        let work: [u64; COUNTER_COUNT] = std::array::from_fn(|i| 3 * i as u64 + 1);
        let responses = [
            PlanResponse::Ok {
                request_id: 1,
                cached: true,
                schedule: schedule.clone(),
                cost: 29,
                lower_bound: 17,
                work,
                server_id: 991,
            },
            PlanResponse::Rejected {
                request_id: 2,
                reason: RejectReason::QueueFull,
            },
            PlanResponse::Rejected {
                request_id: 3,
                reason: RejectReason::MatrixTooLarge,
            },
            PlanResponse::Error {
                request_id: 4,
                message: "bad things".into(),
            },
            PlanResponse::Session {
                request_id: 5,
                session_id: 6,
                generation: 7,
                level: SessionLevel::RePeel,
                schedule,
                cost: 29,
                lower_bound: 17,
                work,
                server_id: 992,
            },
            PlanResponse::SessionRejected {
                request_id: 8,
                session_id: 0,
                reason: SessionRejectReason::TableFull,
            },
            PlanResponse::SessionRejected {
                request_id: 9,
                session_id: 99,
                reason: SessionRejectReason::UnknownSession,
            },
        ];
        for resp in &responses {
            frames.extend(encode_response(resp, VERSION));
        }
        let h = frames.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((frames.len(), h), (1195, 0x86ac_3f9a_0643_1ad8));
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

    /// A plan frame's payload around a hand-built, possibly malformed
    /// matrix on a sane platform (encoding checks nothing).
    fn csr_payload(n2: u32, row_ptr: &[u32], cols: &[u32], bytes: &[u64]) -> Vec<u8> {
        let n1 = row_ptr.len() as u32 - 1;
        let req = PlanRequest {
            request_id: 77,
            algo: Algo::Oggp,
            platform: WirePlatform {
                n1,
                n2,
                t1: 100.0,
                t2: 100.0,
                backbone: 200.0,
                beta_seconds: 0.05,
            },
            matrix: CsrMatrix {
                n1,
                n2,
                row_ptr: row_ptr.to_vec(),
                cols: cols.to_vec(),
                bytes: bytes.to_vec(),
            },
        };
        encode_request(&req)[4..].to_vec()
    }

    /// Every malformed or extreme frame of these tests, with the error the
    /// decoder refuses it with: header, kind, algorithm, platform, β,
    /// section length, row offsets, column order and range, zero bytes and
    /// the tick budget, alone and in pairs (the first error in the fixed
    /// order wins), as plans and as session `OPEN`s.
    pub(crate) fn refused_frames() -> Vec<(Vec<u8>, &'static str)> {
        let sample = encode_request(&sample_request())[4..].to_vec();
        let with = |at: usize, patch: &[u8]| {
            let mut p = sample.clone();
            p[at..at + patch.len()].copy_from_slice(patch);
            p
        };
        // Payload offsets: magic 0, version 4, kind 6, id 7, algo 15,
        // n1 16, n2 20, t1 24, t2 32, T 40, β 48, nnz 56, row_ptr 60.
        let f = |v: f64| v.to_bits().to_be_bytes();
        let extreme = |speed, backbone, beta, bytes| {
            encode_request(&extreme_request(speed, backbone, beta, bytes))[4..].to_vec()
        };
        let mut frames = vec![
            (with(0, b"X"), "bad magic"),
            (with(4, &99u16.to_be_bytes()), "unsupported version 99"),
            (with(6, &[9]), "unknown request kind 9"),
            (with(15, &[2]), "unknown algorithm 2"),
            (with(16, &0u32.to_be_bytes()), "empty cluster"),
            (with(20, &0u32.to_be_bytes()), "empty cluster"),
            (with(24, &f(0.0)), "invalid platform throughputs"),
            (with(32, &f(-1.0)), "invalid platform throughputs"),
            (with(40, &f(f64::NAN)), "invalid platform throughputs"),
            (with(24, &f(f64::INFINITY)), "invalid platform throughputs"),
            (with(48, &f(-0.5)), "invalid beta"),
            (with(48, &f(f64::NAN)), "invalid beta"),
            (with(48, &f(f64::INFINITY)), "invalid beta"),
            (
                with(56, &4u32.to_be_bytes()),
                "matrix section length mismatch",
            ),
            (
                [&sample[..], &[0]].concat(),
                "matrix section length mismatch",
            ),
            (
                sample[..sample.len() - 1].to_vec(),
                "matrix section length mismatch",
            ),
            (
                csr_payload(3, &[1, 1], &[0], &[5]),
                "row_ptr endpoints invalid",
            ),
            (
                csr_payload(3, &[0, 0], &[0], &[5]),
                "row_ptr endpoints invalid",
            ),
            (
                csr_payload(3, &[0, 2, 1, 2], &[0, 1], &[5, 5]),
                "row_ptr not monotone",
            ),
            (
                csr_payload(3, &[0, 2], &[2, 1], &[5, 5]),
                "row 0 columns not ascending",
            ),
            (
                csr_payload(3, &[0, 2], &[1, 1], &[5, 5]),
                "row 0 columns not ascending",
            ),
            (
                csr_payload(3, &[0, 1], &[3], &[5]),
                "row 0 column out of range",
            ),
            (
                csr_payload(3, &[0, 0, 1], &[7], &[5]),
                "row 1 column out of range",
            ),
            (
                csr_payload(3, &[0, 1, 1], &[3], &[5]),
                "row 0 column out of range",
            ),
            (csr_payload(3, &[0, 1], &[0], &[0]), "zero-byte entry"),
            // Column order beats range inside a row; rows come in order.
            (
                csr_payload(3, &[0, 2], &[5, 1], &[5, 5]),
                "row 0 columns not ascending",
            ),
            (
                csr_payload(3, &[0, 1, 3], &[4, 2, 1], &[5, 5, 5]),
                "row 0 column out of range",
            ),
            (
                csr_payload(3, &[0, 1, 3], &[0, 2, 1], &[0, 5, 5]),
                "row 1 columns not ascending",
            ),
            // Structure beats zero bytes, zero bytes beat the tick budget.
            (
                csr_payload(3, &[0, 1, 2], &[0, 3], &[0, 5]),
                "row 1 column out of range",
            ),
            (
                csr_payload(3, &[0, 2], &[0, 1], &[u64::MAX, 0]),
                "zero-byte entry",
            ),
            (
                csr_payload(3, &[0, 1, 3], &[0, 2, 2], &[u64::MAX, 5, 5]),
                "row 1 columns not ascending",
            ),
            (
                extreme(1e-300, 1.0, 0.05, u64::MAX),
                "cell duration overflows the tick range",
            ),
            (
                extreme(1e-3, 1.0, 0.05, u64::MAX),
                "cell duration overflows the tick range",
            ),
            (
                extreme(1e-3, 1.0, 0.0, 100_000_000_000_000_000),
                "matrix exceeds the planner's tick budget",
            ),
            (
                extreme(1e12, 1e12, 0.0, u64::MAX),
                "matrix exceeds the planner's tick budget",
            ),
            (
                extreme(100.0, 200.0, 1e300, 1_000_000),
                "beta overflows the tick range",
            ),
            (
                extreme(100.0, 200.0, 1e15, 1_000_000),
                "matrix exceeds the planner's tick budget",
            ),
            // β is checked before the cells.
            (
                extreme(1e-300, 1.0, 1e300, u64::MAX),
                "beta overflows the tick range",
            ),
        ];
        for cut in [3, 5, 10, 14, 20, 59] {
            frames.push((sample[..cut].to_vec(), "truncated frame"));
        }
        // The same bodies behind a session `OPEN` (kind 1) are refused alike.
        let opens: Vec<_> = frames
            .iter()
            .filter(|(p, _)| p.len() > 15 && p[..4] == MAGIC && p[6] == 0)
            .map(|(p, err)| ([&p[..6], &[1], &p[7..]].concat(), *err))
            .collect();
        frames.extend(opens);
        frames
    }

    /// The walk and the decoder refuse each frame with the message the
    /// table names (the messages the decoder gave before the walk existed).
    #[test]
    fn refused_frames_keep_their_errors() {
        for (i, (payload, expected)) in refused_frames().iter().enumerate() {
            assert_eq!(walk_frame(payload).unwrap_err().0, *expected, "frame {i}");
            assert_eq!(decode_frame(payload).unwrap_err().0, *expected, "frame {i}");
        }
    }

    /// A valid plan frame costs the walk no allocation: it checks and keys
    /// the matrix where it lies in the frame.
    #[test]
    fn walking_a_valid_plan_frame_allocates_nothing() {
        let mut t = TrafficMatrix::zeros(32, 32);
        for i in 0..32 {
            for j in (i % 3..32).step_by(3) {
                t.set(i, j, 1 + (i * 32 + j) as u64 * 7_919);
            }
        }
        let req = PlanRequest {
            matrix: CsrMatrix::from_traffic(&t),
            platform: WirePlatform {
                n1: 32,
                n2: 32,
                ..sample_request().platform
            },
            ..sample_request()
        };
        for frame in [encode_request(&sample_request()), encode_request(&req)] {
            let (key, allocs) = crate::alloc_count::allocations(|| match walk_frame(&frame[4..]) {
                Ok(Frame::Plan { body, .. }) => Some(body.key),
                _ => None,
            });
            assert_eq!(allocs, 0);
            let Request::Plan(decoded) = decode_frame(&frame[4..]).unwrap() else {
                panic!("a plan frame decodes as a plan");
            };
            assert_eq!(key, Some(decoded.cache_key()));
        }
    }
}
