//! The serving front-end: a small number of I/O threads multiplex
//! every client socket through `epoll`, while planning stays on the
//! worker pool behind the bounded admission queue.
//!
//! ```text
//!            epoll (readiness)                BoundedQueue<Job>
//!   sockets ──────────────▶ I/O thread ──admit──▶ worker pool
//!      ▲                        ▲                     │
//!      │    write buffers       │  Inbox + eventfd    │ encoded response
//!      └────────────────────────┴──────◀──────────────┘
//! ```
//!
//! Thread 0 owns the (non-blocking) listener and deals fresh connections
//! round-robin to all I/O threads through their [`Inbox`]es. Each
//! connection lives on exactly one thread; its bytes feed a resumable
//! [`FrameDecoder`], decoded messages queue in a small `pending` ring,
//! and at most **one** frame per connection is in flight on the worker
//! pool at a time — which is what keeps responses in request order
//! without any sequencing machinery. Admission answers cache hits,
//! rejections and decode errors on this thread (the pump appends their
//! frames straight to the write buffer); only misses and session ops
//! travel to a worker. Workers hand finished responses
//! back as pre-encoded bytes via [`CompletionSink`]: an [`Inbox`] push
//! plus an eventfd wake, so the owning thread wakes from `epoll_wait`
//! and copies the bytes into the connection's write buffer.
//!
//! Backpressure is per connection and two-sided: when the write buffer
//! exceeds `wbuf_limit` or more than `pending_limit` decoded messages
//! wait, the connection's `EPOLLIN` interest is parked (counted in
//! `redistd_io_backpressure_total`) until the peer drains responses —
//! a slow reader throttles itself, never the loop. Tokens carry a slab
//! index plus a per-slot generation, so a completion for a connection
//! that died mid-plan is discarded instead of landing on a reused slot.
//!
//! Shutdown drains: stop accepting, serve every admitted request, flush,
//! then exit — with a patience bound so a peer that stops reading cannot
//! hold the process open.

use crate::queue::Inbox;
use crate::server::{Admission, Shared};
use crate::sys::{self, Epoll, EpollEvent, WakeFd, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wire::{self, FrameDecoder, Incoming};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Epoll token of the thread's wakeup eventfd.
const WAKE_TOKEN: u64 = 0;
/// Epoll token of the listener (thread 0 only).
const LISTEN_TOKEN: u64 = 1;
/// Connection tokens start here: `token = slot + CONN_BASE`.
const CONN_BASE: u64 = 2;

/// Tick granularity: shutdown polling and stall sweeps.
const TICK: Duration = Duration::from_millis(50);
/// How often parked/stalled connections are swept.
const SWEEP_EVERY: Duration = Duration::from_millis(250);
/// How long a drain waits for unflushed peers before force-closing them.
const DRAIN_PATIENCE: Duration = Duration::from_secs(5);
/// Listen backlog requested at startup (best effort; also capped by
/// `net.core.somaxconn`). The std default of 128 refuses bursts well
/// below the 1024-connection campaign.
const LISTEN_BACKLOG: i32 = 4096;

/// Per-I/O-thread mailbox: fresh connections from the acceptor and
/// completions from workers, each push paired with an eventfd wake.
pub(crate) struct IoShared {
    wakeup: WakeFd,
    inbox: Inbox<IoMsg>,
}

pub(crate) enum IoMsg {
    /// A freshly accepted connection dealt to this thread.
    Conn(TcpStream),
    /// A worker finished the in-flight frame of connection `token`.
    Complete {
        token: usize,
        generation: u64,
        bytes: Vec<u8>,
    },
}

/// The worker-side half of a queued frame: routes the encoded response
/// back to the connection's owning I/O thread.
pub(crate) struct CompletionSink {
    io: Arc<IoShared>,
    token: usize,
    generation: u64,
}

impl CompletionSink {
    /// Hands the encoded response frame back to the I/O thread.
    pub(crate) fn complete(self, bytes: Vec<u8>) {
        self.io.inbox.push(IoMsg::Complete {
            token: self.token,
            generation: self.generation,
            bytes,
        });
        self.io.wakeup.wake();
    }
}

/// Handle over the running I/O threads.
pub(crate) struct IoHandle {
    threads: Vec<JoinHandle<()>>,
    io: Vec<Arc<IoShared>>,
}

impl IoHandle {
    /// Wakes every I/O thread so it notices the shutdown flag promptly.
    pub(crate) fn wake_all(&self) {
        for io in &self.io {
            io.wakeup.wake();
        }
    }

    /// Joins the I/O threads (call after the workers drained, so every
    /// completion has been delivered).
    pub(crate) fn join(self) {
        self.wake_all();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Spawns the I/O threads. The listener must already be non-blocking.
pub(crate) fn start_io(shared: Arc<Shared>, listener: TcpListener) -> io::Result<IoHandle> {
    let n = shared.config.io_threads.max(1);
    let _ = sys::set_backlog(listener.as_raw_fd(), LISTEN_BACKLOG);
    let mut io = Vec::with_capacity(n);
    for _ in 0..n {
        io.push(Arc::new(IoShared {
            wakeup: WakeFd::new()?,
            inbox: Inbox::new(),
        }));
    }
    let mut threads = Vec::with_capacity(n);
    let mut listener = Some(listener);
    for i in 0..n {
        let epoll = Epoll::new()?;
        let my = io[i].clone();
        epoll.add(my.wakeup.fd(), EPOLLIN, WAKE_TOKEN)?;
        let thread_listener = if i == 0 { listener.take() } else { None };
        if let Some(l) = &thread_listener {
            epoll.add(l.as_raw_fd(), EPOLLIN, LISTEN_TOKEN)?;
        }
        let lp = IoLoop {
            shared: shared.clone(),
            epoll,
            my,
            peers: io.clone(),
            me: i,
            listener: thread_listener,
            conns: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            next_peer: 0,
            open: 0,
            drain_started: None,
            last_sweep: Instant::now(),
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("redistd-io-{i}"))
                .spawn(move || lp.run())
                .expect("spawn io thread"),
        );
    }
    Ok(IoHandle { threads, io })
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Decoded-but-unprocessed messages (bounded by `pending_limit`).
    pending: VecDeque<Incoming>,
    /// Encoded response bytes not yet written; `wpos` is the flushed
    /// prefix, compacted lazily.
    wbuf: Vec<u8>,
    wpos: usize,
    /// One frame on the worker pool at a time — per-connection response
    /// order for free.
    in_flight: bool,
    /// Slot generation captured at registration; guards reused slots
    /// against stale completions.
    generation: u64,
    /// Currently armed epoll interest mask.
    interest: u32,
    /// Peer closed its writing half (EOF seen).
    read_closed: bool,
    /// The decoder hit a protocol error: serve what was decoded before
    /// the bad bytes, then close.
    decode_failed: bool,
    /// Admin command answered (or error queued): close once flushed.
    close_after_flush: bool,
    /// Set while a message is torn mid-stream; enforced against
    /// `wire`'s mid-message patience by the sweep.
    stalled_since: Option<Instant>,
}

impl Conn {
    fn unwritten(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

struct IoLoop {
    shared: Arc<Shared>,
    epoll: Epoll,
    my: Arc<IoShared>,
    peers: Vec<Arc<IoShared>>,
    me: usize,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    /// Per-slot generation, bumped on close so stale completions miss.
    generations: Vec<u64>,
    free: Vec<usize>,
    next_peer: usize,
    open: usize,
    drain_started: Option<Instant>,
    last_sweep: Instant,
}

impl IoLoop {
    fn run(mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
        loop {
            let n = match self.epoll.wait(&mut events, TICK.as_millis() as i32) {
                Ok(n) => n,
                Err(_) => continue,
            };
            let draining = self.shared.shutdown.load(Ordering::SeqCst);
            if draining {
                self.drain_started.get_or_insert_with(Instant::now);
                // Stop accepting: dropping the listener closes it (and
                // deregisters it from epoll).
                self.listener = None;
            }
            for ev in events.iter().take(n).copied() {
                let (mask, token) = (ev.events, ev.data);
                match token {
                    WAKE_TOKEN => self.my.wakeup.drain(),
                    LISTEN_TOKEN => self.accept_burst(draining),
                    t => {
                        let slot = (t - CONN_BASE) as usize;
                        // Any error/hangup bit funnels through the read
                        // path, which observes it as EOF or an I/O error.
                        let readable = mask & (EPOLLIN | EPOLLRDHUP) != 0
                            || mask & !(EPOLLIN | EPOLLOUT | EPOLLRDHUP) != 0;
                        let writable = mask & EPOLLOUT != 0;
                        self.service(slot, readable, writable, draining);
                    }
                }
            }
            self.handle_msgs(draining);
            self.sweep(draining);
            if draining && self.my.inbox.is_empty() && self.open == 0 {
                return;
            }
        }
    }

    fn accept_burst(&mut self, draining: bool) {
        loop {
            if draining {
                return;
            }
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.shared.metrics.accepts_total.inc();
                    let target = self.next_peer % self.peers.len();
                    self.next_peer = self.next_peer.wrapping_add(1);
                    if target == self.me {
                        self.add_conn(stream);
                    } else {
                        self.peers[target].inbox.push(IoMsg::Conn(stream));
                        self.peers[target].wakeup.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (e.g. the peer
                // already reset): keep listening.
                Err(_) => return,
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.conns.push(None);
                self.generations.push(0);
                self.conns.len() - 1
            }
        };
        let interest = EPOLLIN | EPOLLRDHUP;
        if self
            .epoll
            .add(stream.as_raw_fd(), interest, CONN_BASE + slot as u64)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn {
            stream,
            decoder: FrameDecoder::new(),
            pending: VecDeque::new(),
            wbuf: Vec::new(),
            wpos: 0,
            in_flight: false,
            generation: self.generations[slot],
            interest,
            read_closed: false,
            decode_failed: false,
            close_after_flush: false,
            stalled_since: None,
        });
        self.open += 1;
        self.shared.open_connections.fetch_add(1, Ordering::Relaxed);
    }

    fn close(&mut self, slot: usize) {
        if self.conns[slot].take().is_some() {
            // Dropping the stream closes the fd, which also deregisters
            // it from epoll.
            self.generations[slot] += 1;
            self.free.push(slot);
            self.open -= 1;
            self.shared.open_connections.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn handle_msgs(&mut self, draining: bool) {
        for msg in self.my.inbox.drain() {
            match msg {
                IoMsg::Conn(stream) => {
                    if !draining {
                        self.add_conn(stream);
                    }
                    // Draining: drop it — no new connections at shutdown.
                }
                IoMsg::Complete {
                    token,
                    generation,
                    bytes,
                } => {
                    let live = self
                        .conns
                        .get_mut(token)
                        .and_then(|c| c.as_mut())
                        .filter(|c| c.generation == generation);
                    if let Some(conn) = live {
                        conn.in_flight = false;
                        conn.wbuf.extend_from_slice(&bytes);
                        self.service(token, false, true, draining);
                    }
                    // Stale generation: the connection died mid-plan; the
                    // plan is cached, the bytes are dropped.
                }
            }
        }
    }

    /// The per-connection engine: read what the socket has, decode, pump
    /// admissions, flush, then decide interest/closure. Every readiness
    /// event, completion and sweep funnels through here.
    fn service(&mut self, slot: usize, readable: bool, writable: bool, draining: bool) {
        if self.conns.get(slot).is_none_or(|c| c.is_none()) {
            return;
        }
        let pending_limit = self.shared.config.pending_limit.max(1);
        let wbuf_limit = self.shared.config.wbuf_limit.max(1);

        // Read phase: pull bytes while below both backpressure limits,
        // feed the resumable decoder, queue complete messages.
        if readable {
            let conn = self.conns[slot].as_mut().unwrap();
            let mut dead = false;
            if !conn.read_closed && !conn.decode_failed {
                let mut buf = [0u8; 16 * 1024];
                loop {
                    if conn.pending.len() >= pending_limit || conn.unwritten() >= wbuf_limit {
                        break; // backpressured: leave the rest in the kernel
                    }
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            conn.read_closed = true;
                            break;
                        }
                        Ok(n) => {
                            conn.decoder.extend(&buf[..n]);
                            while conn.pending.len() < pending_limit {
                                match conn.decoder.poll() {
                                    Ok(Some(msg)) => conn.pending.push_back(msg),
                                    Ok(None) => break,
                                    Err(_) => {
                                        // Protocol violation (oversized
                                        // frame, torn admin command, any
                                        // other plaintext): what decoded
                                        // before it is still served,
                                        // nothing after.
                                        conn.decode_failed = true;
                                        break;
                                    }
                                }
                            }
                            if conn.decode_failed || n < buf.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                // Mid-message with nothing left in the kernel: the *peer*
                // stalled, start (or keep) the patience clock. While
                // backpressured the parking is our own doing — undecoded
                // bytes waiting out a full pending ring say nothing about
                // the peer — so the clock must not run.
                let parked = conn.pending.len() >= pending_limit || conn.unwritten() >= wbuf_limit;
                if conn.decoder.is_mid_message() && !conn.read_closed && !parked {
                    conn.stalled_since.get_or_insert_with(Instant::now);
                } else {
                    conn.stalled_since = None;
                }
            }
            if dead {
                self.close(slot);
                return;
            }
        }

        // Decode phase: drain buffered-but-undecoded messages into the
        // pending ring whenever it has room. This must not depend on
        // readability — a read that parked on a full ring can leave whole
        // messages sitting in the decoder with nothing left in the kernel,
        // so no further readiness event would ever re-deliver them.
        {
            let conn = self.conns[slot].as_mut().unwrap();
            if !conn.decode_failed {
                while conn.pending.len() < pending_limit {
                    match conn.decoder.poll() {
                        Ok(Some(msg)) => conn.pending.push_back(msg),
                        Ok(None) => break,
                        Err(_) => {
                            conn.decode_failed = true;
                            break;
                        }
                    }
                }
            }
        }

        // Pump phase: admit decoded messages while the connection may take
        // on work — one frame in flight, write buffer under its limit.
        loop {
            let conn = self.conns[slot].as_mut().unwrap();
            if conn.in_flight || conn.close_after_flush || conn.unwritten() >= wbuf_limit {
                break;
            }
            let Some(msg) = conn.pending.pop_front() else {
                break;
            };
            let generation = conn.generation;
            let body: Vec<u8> = match msg {
                // Admin commands are one-shot: answer, then close.
                Incoming::Metrics => {
                    let body = self.shared.render_metrics().into_bytes();
                    self.conns[slot].as_mut().unwrap().close_after_flush = true;
                    body
                }
                Incoming::Flight => {
                    let body = self.shared.flight.render().into_bytes();
                    self.conns[slot].as_mut().unwrap().close_after_flush = true;
                    body
                }
                Incoming::Frame(payload) => {
                    let sink = CompletionSink {
                        io: self.my.clone(),
                        token: slot,
                        generation,
                    };
                    match crate::server::admit_frame(&self.shared, &payload, sink) {
                        Admission::Immediate(frame) => frame,
                        Admission::Queued => {
                            self.conns[slot].as_mut().unwrap().in_flight = true;
                            Vec::new()
                        }
                    }
                }
            };
            if !body.is_empty() {
                self.conns[slot]
                    .as_mut()
                    .unwrap()
                    .wbuf
                    .extend_from_slice(&body);
            }
        }

        // Flush phase: write whatever is buffered; WouldBlock arms
        // EPOLLOUT below.
        {
            let conn = self.conns[slot].as_mut().unwrap();
            let mut dead = false;
            if writable || conn.unwritten() > 0 {
                while conn.wpos < conn.wbuf.len() {
                    match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(n) => conn.wpos += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                if conn.wpos == conn.wbuf.len() {
                    conn.wbuf.clear();
                    conn.wpos = 0;
                } else if conn.wpos >= 64 * 1024 {
                    conn.wbuf.drain(..conn.wpos);
                    conn.wpos = 0;
                }
            }
            if dead {
                self.close(slot);
                return;
            }
        }

        // Closure decision + interest re-arm. Reads stay parked while
        // backpressured (slow reader, full pending ring) or once the
        // stream has nothing more to say; writes only while bytes wait.
        let (done, want, was, fd, backpressured) = {
            let conn = self.conns[slot].as_ref().unwrap();
            let flushed = conn.unwritten() == 0;
            let idle = !conn.in_flight && conn.pending.is_empty();
            let closing = conn.close_after_flush || conn.read_closed || conn.decode_failed;
            let done = flushed && ((closing && idle) || (draining && !conn.in_flight));
            let backpressured =
                conn.pending.len() >= pending_limit || conn.unwritten() >= wbuf_limit;
            let mut want = 0;
            if !conn.read_closed && !conn.decode_failed && !draining && !backpressured {
                want |= EPOLLIN | EPOLLRDHUP;
            }
            if conn.unwritten() > 0 {
                want |= EPOLLOUT;
            }
            (
                done,
                want,
                conn.interest,
                conn.stream.as_raw_fd(),
                backpressured,
            )
        };
        if done {
            self.close(slot);
            return;
        }
        if want != was {
            if was & EPOLLIN != 0 && want & EPOLLIN == 0 && backpressured {
                self.shared.metrics.io_backpressure_total.inc();
            }
            if self.epoll.modify(fd, want, CONN_BASE + slot as u64).is_ok() {
                self.conns[slot].as_mut().unwrap().interest = want;
            }
        }
    }

    /// Periodic sweep: enforce the mid-message stall bound, nudge parked
    /// connections whose backpressure cleared, and force the drain after
    /// its patience runs out.
    fn sweep(&mut self, draining: bool) {
        if !draining && self.last_sweep.elapsed() < SWEEP_EVERY {
            return;
        }
        self.last_sweep = Instant::now();
        let force_drain = draining
            && self
                .drain_started
                .is_some_and(|t| t.elapsed() > DRAIN_PATIENCE);
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            if force_drain {
                self.close(slot);
                continue;
            }
            let stalled = conn
                .stalled_since
                .is_some_and(|t| t.elapsed() > wire::MID_MESSAGE_PATIENCE);
            if stalled {
                self.close(slot);
                continue;
            }
            // Backpressure may have cleared without a readiness event
            // (responses flushed from a completion): re-run the engine so
            // EPOLLIN gets re-armed and pending work pumps.
            self.service(slot, false, false, draining);
        }
    }
}

impl std::fmt::Debug for CompletionSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionSink")
            .field("token", &self.token)
            .field("generation", &self.generation)
            .finish()
    }
}
