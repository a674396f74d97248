//! Lightweight spans and instant events with thread-local collectors.
//!
//! A span is a begin/end pair bracketing a region of work; an instant is a
//! single point. Recording is gated by one global atomic: when disabled,
//! [`span`] returns an inert guard after a relaxed load and a branch — no
//! thread-local access, no allocation, no clock read. When enabled, events
//! accumulate in a per-thread buffer (no locking on the hot path); a
//! thread's buffer flushes into a global registry when the thread exits, or
//! earlier through [`flush_local`]. A worker whose events must be visible
//! the moment it is joined ends with [`flush_local`]; then a [`drain_all`]
//! after the join sees everything.
//!
//! # Clocks
//!
//! Two clock modes ([`set_clock`]):
//!
//! * [`ClockMode::Wall`] (default) — microseconds since a process-wide
//!   epoch, the right choice for real traces viewed in Perfetto.
//! * [`ClockMode::Logical`] — a per-thread sequence number. Timestamps are
//!   then a pure function of the code path, so fixed-seed runs export
//!   byte-identical traces; the golden-file tests use this mode.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Kind of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// Region start (Chrome trace `"B"`).
    Begin,
    /// Region end (Chrome trace `"E"`).
    End,
    /// A single point in time (Chrome trace `"i"`).
    Instant,
}

/// Maximum number of key/value pairs a [`SpanArgs`] can carry.
pub const MAX_ARGS: usize = 4;

/// A small, fixed-capacity set of `(key, u64)` pairs attached to an event.
///
/// Keys are `'static` and values are integers so that attaching arguments
/// never allocates — the correlation ids the serving and execution layers
/// attach (request id, execution slot, transfer endpoints) are all small
/// integers. Pairs beyond [`MAX_ARGS`] are silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanArgs {
    keys: [&'static str; MAX_ARGS],
    vals: [u64; MAX_ARGS],
    len: u8,
}

impl SpanArgs {
    /// Builds args from at most [`MAX_ARGS`] pairs (extras are dropped).
    pub fn new(pairs: &[(&'static str, u64)]) -> SpanArgs {
        let mut a = SpanArgs {
            keys: [""; MAX_ARGS],
            vals: [0; MAX_ARGS],
            len: 0,
        };
        for &(k, v) in pairs.iter().take(MAX_ARGS) {
            a.keys[a.len as usize] = k;
            a.vals[a.len as usize] = v;
            a.len += 1;
        }
        a
    }

    /// True when no pairs are attached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the attached `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        (0..self.len as usize).map(|i| (self.keys[i], self.vals[i]))
    }

    /// Value of `key`, if attached.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.iter().find_map(|(k, v)| (k == key).then_some(v))
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Static name of the span or instant.
    pub name: &'static str,
    /// Begin, end, or instant.
    pub phase: SpanPhase,
    /// Timestamp in microseconds — wall-clock since the process epoch, or
    /// the per-thread sequence number in logical mode.
    pub ts: f64,
    /// Recording thread (dense ids in first-use order).
    pub tid: u64,
    /// Correlation arguments (empty for most events).
    pub args: SpanArgs,
}

/// Timestamp source for recorded events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Microseconds since the process epoch (default).
    Wall,
    /// Per-thread sequence numbers; deterministic for fixed-seed runs.
    Logical,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static LOGICAL: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static GLOBAL: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct LocalSpans {
    tid: u64,
    logical_now: u64,
    events: Vec<SpanEvent>,
}

impl LocalSpans {
    fn new() -> Self {
        LocalSpans {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            logical_now: 0,
            events: Vec::new(),
        }
    }

    fn record(&mut self, name: &'static str, phase: SpanPhase, args: SpanArgs) {
        let ts = if LOGICAL.load(Ordering::Relaxed) {
            let t = self.logical_now;
            self.logical_now += 1;
            t as f64
        } else {
            epoch().elapsed().as_secs_f64() * 1e6
        };
        self.events.push(SpanEvent {
            name,
            phase,
            ts,
            tid: self.tid,
            args,
        });
    }

    /// Moves the buffered events into the global registry.
    fn flush(&mut self) {
        if !self.events.is_empty() {
            if let Ok(mut g) = GLOBAL.lock() {
                g.append(&mut self.events);
            }
        }
    }
}

impl Drop for LocalSpans {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalSpans> = RefCell::new(LocalSpans::new());
}

/// Turns span recording on (process-wide).
pub fn enable() {
    // Pin the epoch before the first event so wall timestamps start small.
    let _ = epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span recording off (process-wide). Open [`SpanGuard`]s still
/// record their end event, keeping traces balanced.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether span recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Selects the timestamp source. Call from a quiescent point (mixing modes
/// within one trace produces meaningless timelines, though still balanced).
pub fn set_clock(mode: ClockMode) {
    LOGICAL.store(mode == ClockMode::Logical, Ordering::Relaxed);
}

fn record(name: &'static str, phase: SpanPhase, args: SpanArgs) {
    // Ignore events during thread teardown (TLS already destroyed).
    let _ = LOCAL.try_with(|l| l.borrow_mut().record(name, phase, args));
}

/// RAII guard for a span: records `Begin` on creation (when enabled) and
/// the matching `End` on drop. Inert — no allocation, no TLS — when
/// recording was disabled at creation.
#[must_use = "a span guard records its end when dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            record(self.name, SpanPhase::End, SpanArgs::default());
        }
    }
}

/// Opens a span named `name`. `name` must be `'static` so that recording
/// never allocates.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, &[])
}

/// Opens a span carrying correlation arguments on its begin event — e.g.
/// `span_with("redistd.plan", &[("rid", request_id)])`. The matching end
/// event carries no args (the begin's args identify the span).
#[inline]
pub fn span_with(name: &'static str, args: &[(&'static str, u64)]) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            active: false,
        };
    }
    record(name, SpanPhase::Begin, SpanArgs::new(args));
    SpanGuard { name, active: true }
}

/// Records an instant event (a single point in the timeline); no-op when
/// disabled.
#[inline]
pub fn instant(name: &'static str) {
    instant_with(name, &[]);
}

/// Records an instant event carrying correlation arguments; no-op when
/// disabled.
#[inline]
pub fn instant_with(name: &'static str, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    record(name, SpanPhase::Instant, SpanArgs::new(args));
}

/// Moves the calling thread's events into the global registry now instead
/// of at thread exit — the mirror of [`crate::counters::flush_local`]. The
/// standard library runs thread-local destructors on a best-effort basis,
/// and after `std::thread::scope` has returned for threads it joins
/// implicitly; a worker that calls this as its last traced act is ordered
/// before [`drain_all`] by the join itself.
pub fn flush_local() {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
}

/// Takes (and clears) the calling thread's recorded events. Unaffected by
/// other threads — single-threaded tests and the golden-file exports use
/// this.
pub fn drain_thread() -> Vec<SpanEvent> {
    LOCAL
        .try_with(|l| std::mem::take(&mut l.borrow_mut().events))
        .unwrap_or_default()
}

/// Takes (and clears) every flushed event plus the calling thread's buffer,
/// sorted by timestamp (stable, so per-thread order is preserved). Call
/// after joining worker threads for a complete trace.
pub fn drain_all() -> Vec<SpanEvent> {
    let mut events = GLOBAL
        .lock()
        .map(|mut g| std::mem::take(&mut *g))
        .unwrap_or_default();
    events.extend(drain_thread());
    events.sort_by(|a, b| a.ts.partial_cmp(&b.ts).unwrap_or(std::cmp::Ordering::Equal));
    events
}

/// Discards all recorded events (global registry and the calling thread's
/// buffer) and restarts the calling thread's logical clock at zero. Other
/// live threads' buffers are untouched; call from a quiescent point.
pub fn reset() {
    if let Ok(mut g) = GLOBAL.lock() {
        g.clear();
    }
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        l.events.clear();
        l.logical_now = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Spans are process-global; tests that toggle them must not overlap.
    static LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _g = LOCK.lock().unwrap();
        disable();
        drain_thread();
        {
            let _s = span("quiet");
            instant("also quiet");
        }
        assert!(drain_thread().is_empty());
    }

    #[test]
    fn spans_nest_and_balance() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        {
            let _a = span("outer");
            {
                let _b = span("inner");
            }
            instant("tick");
        }
        disable();
        let ev = drain_thread();
        let names: Vec<(&str, SpanPhase)> = ev.iter().map(|e| (e.name, e.phase)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", SpanPhase::Begin),
                ("inner", SpanPhase::Begin),
                ("inner", SpanPhase::End),
                ("tick", SpanPhase::Instant),
                ("outer", SpanPhase::End),
            ]
        );
        for w in ev.windows(2) {
            assert!(w[0].ts <= w[1].ts, "timestamps must be monotone");
        }
    }

    #[test]
    fn logical_clock_is_deterministic() {
        let _g = LOCK.lock().unwrap();
        set_clock(ClockMode::Logical);
        enable();
        let run = || {
            reset();
            {
                let _s = span("a");
                instant("b");
            }
            drain_thread()
        };
        let e1 = run();
        let e2 = run();
        disable();
        set_clock(ClockMode::Wall);
        assert_eq!(e1, e2);
        assert_eq!(e1[0].ts, 0.0);
        assert_eq!(e1[1].ts, 1.0);
        assert_eq!(e1[2].ts, 2.0);
    }

    #[test]
    fn args_attach_to_begin_and_instant_events() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        {
            let _s = span_with("labelled", &[("rid", 7), ("slot", 3)]);
            instant_with("point", &[("edge", 9)]);
        }
        disable();
        let ev = drain_thread();
        assert_eq!(ev[0].args.get("rid"), Some(7));
        assert_eq!(ev[0].args.get("slot"), Some(3));
        assert_eq!(ev[0].args.get("missing"), None);
        assert_eq!(ev[1].args.get("edge"), Some(9));
        // End events carry no args; the begin identifies the span.
        assert!(ev[2].args.is_empty());
        // Pairs beyond MAX_ARGS are dropped, not panicked on.
        let a = SpanArgs::new(&[("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)]);
        assert_eq!(a.iter().count(), MAX_ARGS);
        assert_eq!(a.get("e"), None);
    }

    #[test]
    fn guard_open_across_disable_still_balances() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        let s = span("crossing");
        disable();
        drop(s);
        let ev = drain_thread();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].phase, SpanPhase::End);
    }

    #[test]
    fn worker_thread_events_flush_to_drain_all() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        std::thread::spawn(|| {
            let _s = span("worker");
        })
        .join()
        .unwrap();
        let _s = span("main");
        drop(_s);
        disable();
        let ev = drain_all();
        assert!(ev.iter().any(|e| e.name == "worker"));
        assert!(ev.iter().any(|e| e.name == "main"));
        assert!(drain_all().is_empty(), "drain_all clears the registry");
    }
}
