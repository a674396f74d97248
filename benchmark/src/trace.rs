//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from outside the product, around each client call and
//! around each replayed layer call: name, start, end, the span that caused
//! it and the op it belongs to. They stay in memory during the run and are
//! written out as JSON when it ends. Spans inside the product are a later
//! change.

use std::io::Write;
use std::time::{Duration, Instant};

/// Identifier of a recorded span; `SpanId::NONE` marks a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    op: u64,
}

/// One thread's span buffer. A disabled recorder still runs and times the
/// closure but keeps nothing, so traced and untraced loops share one body.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// `origin` is shared by every recorder of a run so their spans line up.
    pub fn new(origin: Instant, enabled: bool) -> Recorder {
        Recorder {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Runs `f`, returning its result and its wall time; records a span
    /// when enabled.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        if self.enabled {
            self.push(name, parent, op, start, elapsed);
        }
        (out, elapsed)
    }

    /// Opens a parent span whose children are recorded before it closes;
    /// returns the id children refer to. Close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: SpanId::NONE,
            op,
        });
        SpanId(self.spans.len() as u32)
    }

    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            self.spans[id.0 as usize - 1].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    fn push(&mut self, name: &'static str, parent: SpanId, op: u64, start: Instant, d: Duration) {
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + d.as_nanos() as u64,
            parent,
            op,
        });
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != SpanId::NONE {
                s.parent = SpanId(s.parent.0 + base);
            }
            s
        }));
    }

    /// Writes the spans as one JSON array, one object per span; `id` is the
    /// 1-based position and `parent` 0 for a root.
    pub fn write_json(&self, mut w: impl Write) -> std::io::Result<()> {
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}{sep}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.0,
                s.op
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let mut r = Recorder::new(Instant::now(), false);
        let (v, d) = r.time("x", SpanId::NONE, 1, || 7);
        assert_eq!(v, 7);
        assert!(d < Duration::from_secs(1));
        assert!(r.is_empty());
        assert_eq!(r.open("p", 0), SpanId::NONE);
    }

    #[test]
    fn spans_nest_merge_and_write_json() {
        let mut r = Recorder::new(Instant::now(), true);
        let p = r.open("parent", 3);
        r.time("child", p, 3, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        r.close(p);
        assert_eq!(r.durations_us("child").len(), 1);
        assert!(r.durations_us("parent")[0] >= r.durations_us("child")[0]);

        let mut other = Recorder::new(Instant::now(), true);
        let q = other.open("parent", 4);
        other.time("child", q, 4, || ());
        other.close(q);
        r.absorb(other);
        assert_eq!(r.len(), 4);

        let mut buf = Vec::new();
        r.write_json(&mut buf).unwrap();
        let parsed = telemetry::json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 4);
        // The absorbed child's parent link was re-based onto its own parent.
        assert_eq!(arr[3].get("parent").unwrap().as_f64(), Some(3.0));
        assert_eq!(arr[3].get("op").unwrap().as_f64(), Some(4.0));
    }
}
