//! Always-on flight recorder: a fixed-capacity ring of per-request records.
//!
//! A [`FlightRecorder`] keeps the last `capacity` [`FlightRecord`]s pushed
//! into it. The intended use is post-hoc explanation: when a request sheds,
//! errors, or lands in the p99 tail, its record — queue depth at admission,
//! queue wait, plan time, cache outcome, worker id, and (for executed
//! schedules) retry/replan/fault counts — is still in the ring and can be
//! dumped via the `FLIGHT` admin command or `redistd --flight-dump` without
//! having had tracing enabled ahead of time.
//!
//! # Concurrency
//!
//! Pushing is lock-cheap: a single atomic ticket fetch picks the slot, and
//! only that slot's mutex is held while the record is written. Writers on
//! different slots never contend; two writers racing a full lap apart on the
//! same slot resolve by sequence number (the newer record wins). Dumping
//! locks one slot at a time and sorts by sequence, so a dump is a consistent
//! "newest N" view even while traffic continues.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How a request left the serving path — the one-word explanation a flight
/// record leads with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightOutcome {
    /// Planned cold (cache miss) and the schedule was returned.
    Planned,
    /// Served byte-identically from the plan cache.
    CacheHit,
    /// Shed at admission: the bounded queue was full.
    ShedQueueFull,
    /// Shed at admission: the instance exceeded the configured size cap.
    ShedTooLarge,
    /// The request failed after admission (decode or internal error).
    Error,
    /// Planned and then executed through `redistexec` (retry/replan/fault
    /// counts are meaningful only for this outcome).
    Executed,
}

impl FlightOutcome {
    /// Stable lowercase token used in dumps and metrics labels.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightOutcome::Planned => "planned",
            FlightOutcome::CacheHit => "cache_hit",
            FlightOutcome::ShedQueueFull => "shed_queue_full",
            FlightOutcome::ShedTooLarge => "shed_too_large",
            FlightOutcome::Error => "error",
            FlightOutcome::Executed => "executed",
        }
    }
}

/// One request's life, compressed to a fixed-size record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Server-minted request id (matches the wire header and span labels).
    pub rid: u64,
    /// Client-supplied request id from the wire header.
    pub client_id: u64,
    /// Total bytes in the redistribution instance.
    pub bytes: u64,
    /// Sender count.
    pub n1: u32,
    /// Receiver count.
    pub n2: u32,
    /// Admission-queue depth observed when this request was admitted
    /// (sheds record the depth that rejected them).
    pub queue_depth: u32,
    /// Microseconds from admission to worker pickup (0 for sheds and for
    /// hits answered at admission, which never queue).
    pub queue_wait_us: u64,
    /// Microseconds spent planning (0 for cache hits and sheds).
    pub plan_us: u64,
    /// How the request left the system.
    pub outcome: FlightOutcome,
    /// Worker that served the request, or [`FlightRecord::NO_WORKER`] when
    /// none touched it: sheds, pre-admission errors, and — with outcome
    /// [`FlightOutcome::CacheHit`] — a hit **answered at admission**, on
    /// the thread that decoded the frame.
    pub worker: u32,
    /// Execution retries (meaningful for [`FlightOutcome::Executed`]).
    pub retries: u32,
    /// Execution replans.
    pub replans: u32,
    /// Faults injected/observed during execution.
    pub faults: u32,
    /// Steps spliced in by replanning.
    pub spliced: u32,
}

impl FlightRecord {
    /// The `worker` value of a request no worker touched; rendered `-1`.
    pub const NO_WORKER: u32 = u32::MAX;

    /// A record for a request no worker served yet: everything zeroed,
    /// worker marked absent. Callers fill in what they know.
    pub fn new(rid: u64, outcome: FlightOutcome) -> Self {
        FlightRecord {
            rid,
            client_id: 0,
            bytes: 0,
            n1: 0,
            n2: 0,
            queue_depth: 0,
            queue_wait_us: 0,
            plan_us: 0,
            outcome,
            worker: Self::NO_WORKER,
            retries: 0,
            replans: 0,
            faults: 0,
            spliced: 0,
        }
    }

    /// Renders the record as one `key=value` line (no trailing newline).
    /// Field order is fixed so dumps are stable and greppable.
    fn render(&self, seq: u64, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "seq={} rid={} client_id={} outcome={} bytes={} n1={} n2={} \
             queue_depth={} queue_wait_us={} plan_us={} worker={} \
             retries={} replans={} faults={} spliced={}",
            seq,
            self.rid,
            self.client_id,
            self.outcome.as_str(),
            self.bytes,
            self.n1,
            self.n2,
            self.queue_depth,
            self.queue_wait_us,
            self.plan_us,
            if self.worker == Self::NO_WORKER {
                -1i64
            } else {
                self.worker as i64
            },
            self.retries,
            self.replans,
            self.faults,
            self.spliced,
        );
    }
}

/// Fixed-capacity ring buffer of [`FlightRecord`]s. See the module docs for
/// the concurrency story.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<(u64, FlightRecord)>>>,
    next: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding the newest `capacity` records (capacity is
    /// clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed (not capped by capacity).
    pub fn total(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Records one request. Lock-cheap: one atomic ticket plus one per-slot
    /// mutex; concurrent pushes to different slots do not contend.
    pub fn push(&self, record: FlightRecord) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        let mut guard = self.slots[slot].lock().unwrap_or_else(|e| e.into_inner());
        // A writer a full lap behind must not clobber a newer record.
        match *guard {
            Some((existing, _)) if existing > seq => {}
            _ => *guard = Some((seq, record)),
        }
    }

    /// Snapshot of the ring, oldest first, as `(seq, record)` pairs.
    pub fn dump(&self) -> Vec<(u64, FlightRecord)> {
        let mut out: Vec<(u64, FlightRecord)> = self
            .slots
            .iter()
            .filter_map(|s| *s.lock().unwrap_or_else(|e| e.into_inner()))
            .collect();
        out.sort_by_key(|&(seq, _)| seq);
        out
    }

    /// Renders the ring as plain text: a header line
    /// `redistd flight records=K capacity=C total=T` followed by one
    /// `key=value` line per record, oldest first.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let records = self.dump();
        let mut out = String::with_capacity(64 + records.len() * 160);
        let _ = writeln!(
            out,
            "redistd flight records={} capacity={} total={}",
            records.len(),
            self.capacity(),
            self.total()
        );
        for (seq, r) in &records {
            r.render(*seq, &mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(rid: u64) -> FlightRecord {
        FlightRecord::new(rid, FlightOutcome::Planned)
    }

    #[test]
    fn keeps_everything_under_capacity() {
        let fr = FlightRecorder::new(8);
        for rid in 0..5 {
            fr.push(rec(rid));
        }
        let dump = fr.dump();
        assert_eq!(dump.len(), 5);
        assert_eq!(fr.total(), 5);
        let rids: Vec<u64> = dump.iter().map(|(_, r)| r.rid).collect();
        assert_eq!(rids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overwrites_oldest_on_wraparound() {
        let fr = FlightRecorder::new(4);
        for rid in 0..10 {
            fr.push(rec(rid));
        }
        let dump = fr.dump();
        assert_eq!(dump.len(), 4);
        assert_eq!(fr.total(), 10);
        let rids: Vec<u64> = dump.iter().map(|(_, r)| r.rid).collect();
        assert_eq!(rids, vec![6, 7, 8, 9], "newest 4 survive, oldest first");
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let fr = FlightRecorder::new(0);
        assert_eq!(fr.capacity(), 1);
        fr.push(rec(1));
        fr.push(rec(2));
        assert_eq!(fr.dump().len(), 1);
        assert_eq!(fr.dump()[0].1.rid, 2);
    }

    #[test]
    fn render_has_header_and_stable_fields() {
        let fr = FlightRecorder::new(4);
        let mut r = rec(7);
        r.client_id = 99;
        r.bytes = 1234;
        r.n1 = 3;
        r.n2 = 5;
        r.queue_depth = 2;
        r.queue_wait_us = 40;
        r.plan_us = 150;
        r.worker = 1;
        fr.push(r);
        let mut shed = FlightRecord::new(8, FlightOutcome::ShedQueueFull);
        shed.queue_depth = 16;
        fr.push(shed);
        let text = fr.render();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "redistd flight records=2 capacity=4 total=2"
        );
        assert_eq!(
            lines.next().unwrap(),
            "seq=0 rid=7 client_id=99 outcome=planned bytes=1234 n1=3 n2=5 \
             queue_depth=2 queue_wait_us=40 plan_us=150 worker=1 \
             retries=0 replans=0 faults=0 spliced=0"
        );
        // Sheds render worker=-1 (no worker ever touched the request).
        let shed_line = lines.next().unwrap();
        assert!(shed_line.contains("outcome=shed_queue_full"), "{shed_line}");
        assert!(shed_line.contains("worker=-1"), "{shed_line}");
        assert!(shed_line.contains("queue_depth=16"), "{shed_line}");
    }

    #[test]
    fn concurrent_pushes_keep_ring_consistent() {
        let fr = std::sync::Arc::new(FlightRecorder::new(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let fr = fr.clone();
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        fr.push(rec(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(fr.total(), 1024);
        let dump = fr.dump();
        assert_eq!(dump.len(), 64);
        // Sequence numbers are strictly increasing and all from the last lap.
        for w in dump.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert!(dump[0].0 >= 1024 - 64);
    }

    #[test]
    fn outcome_tokens_are_stable() {
        for (o, s) in [
            (FlightOutcome::Planned, "planned"),
            (FlightOutcome::CacheHit, "cache_hit"),
            (FlightOutcome::ShedQueueFull, "shed_queue_full"),
            (FlightOutcome::ShedTooLarge, "shed_too_large"),
            (FlightOutcome::Error, "error"),
            (FlightOutcome::Executed, "executed"),
        ] {
            assert_eq!(o.as_str(), s);
        }
    }
}
