//! Live delta-planning sessions — the server-side state behind the wire
//! v3 `OPEN`/`DELTA`/`COMMIT`/`CLOSE` frames.
//!
//! A session pins one [`kpbs::DeltaPlanner`] (live instance + committed
//! schedule + warm matching engine) together with the platform it was
//! opened on, so later `DELTA` frames can convert byte-sized edits into
//! tick-weighted [`kpbs::MatrixDelta`]s with exactly the conversion the
//! cold plan used. The [`SessionTable`] is the bounded registry both
//! serving cores share: `OPEN` beyond capacity is refused with
//! `table_full` (backpressure, mirroring the bounded request queue), and
//! every id is minted once and never reused, so a stale client talking to
//! a recycled slot gets `unknown_session` instead of someone else's plan.
//!
//! Sessions are worker-side state: ops arrive through the same admission
//! queue as stateless plans, and each session serialises its own ops
//! behind a per-session mutex while leaving the table free for others.

use crate::wire::WireDelta;
use kpbs::traffic::{plan_ticks_fit, try_message_ticks, TickScale};
use kpbs::{DeltaPlanner, MatrixDelta, Platform};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One live planning session.
pub struct Session {
    /// The platform fixed at `OPEN`; per-cell byte→tick conversion of
    /// every later delta uses its transfer speed.
    pub platform: Platform,
    /// The tick discretisation fixed at `OPEN`.
    pub scale: TickScale,
    /// The stateful planner holding the live instance, its committed
    /// schedule, and the warm matching engine.
    pub planner: DeltaPlanner,
}

/// Why a batch of wire deltas could not be handed to the planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A delta addresses a node outside the session's current dimensions
    /// (answered as a protocol error; the session is untouched).
    OutOfRange(String),
    /// Growth would push the session's cell count past the server's
    /// `max_cells` admission limit (answered as `matrix_too_large`).
    TooLarge,
    /// A cell's duration does not fit the tick range on the session's
    /// platform, or the edited matrix would exceed the planner's tick
    /// budget (answered as a protocol error; the session is untouched).
    TickOverflow(String),
}

impl Session {
    /// Converts a `DELTA` frame's byte-sized edits into tick-weighted
    /// planner deltas, bounds-checking every index against the dimensions
    /// the batch would see at that point (edits apply in order, so a
    /// `GrowNodes` may be addressed by later cells in the same batch).
    ///
    /// Validation happens *before* [`DeltaPlanner::replan`] ever runs —
    /// the planner panics on out-of-range indices and overflowing tick
    /// sums, and a panicked worker is a lost worker — so a malformed batch
    /// leaves the session intact. The tick budget is checked against an
    /// upper bound of the edited instance (every `SetCell` counted as a new
    /// edge on top of the current total) plus one tick per edge, through
    /// the same [`kpbs::traffic::plan_ticks_fit`] the frame walk applies.
    /// The walk bounds a matrix by `ticks(Σ bytes) + nnz`; since
    /// `⌈Σx⌉ ≤ Σ⌈x⌉`, the sum checked here is at least that bound, so a
    /// `DELTA` never grows a session into a matrix its own `OPEN` would
    /// refuse.
    pub fn convert_deltas(
        &self,
        deltas: &[WireDelta],
        max_cells: u64,
    ) -> Result<Vec<MatrixDelta>, DeltaError> {
        let inst = self.planner.instance();
        let g = &inst.graph;
        let (mut n1, mut n2) = (g.left_count(), g.right_count());
        let (mut edges, mut total) = (g.edge_count(), Some(inst.total_weight()));
        let mut out = Vec::with_capacity(deltas.len());
        for d in deltas {
            match *d {
                WireDelta::SetCell {
                    sender,
                    receiver,
                    bytes,
                } => {
                    if sender as usize >= n1 {
                        return Err(DeltaError::OutOfRange(format!(
                            "delta sender {sender} out of range (session has {n1} senders)"
                        )));
                    }
                    if receiver as usize >= n2 {
                        return Err(DeltaError::OutOfRange(format!(
                            "delta receiver {receiver} out of range (session has {n2} receivers)"
                        )));
                    }
                    let ticks =
                        try_message_ticks(&self.platform, self.scale, bytes).ok_or_else(|| {
                            DeltaError::TickOverflow(format!(
                                "cell ({sender}, {receiver}) duration overflows the tick range"
                            ))
                        })?;
                    edges += 1;
                    total = total.and_then(|t| t.checked_add(ticks));
                    out.push(MatrixDelta::Set {
                        sender: sender as usize,
                        receiver: receiver as usize,
                        ticks,
                    });
                }
                WireDelta::GrowNodes { senders, receivers } => {
                    n1 += senders as usize;
                    n2 += receivers as usize;
                    if (n1 as u64).saturating_mul(n2 as u64) > max_cells {
                        return Err(DeltaError::TooLarge);
                    }
                    out.push(MatrixDelta::GrowNodes {
                        senders: senders as usize,
                        receivers: receivers as usize,
                    });
                }
                WireDelta::DropSender(i) => {
                    if i as usize >= n1 {
                        return Err(DeltaError::OutOfRange(format!(
                            "dropped sender {i} out of range (session has {n1} senders)"
                        )));
                    }
                    out.push(MatrixDelta::DropSender(i as usize));
                }
                WireDelta::DropReceiver(j) => {
                    if j as usize >= n2 {
                        return Err(DeltaError::OutOfRange(format!(
                            "dropped receiver {j} out of range (session has {n2} receivers)"
                        )));
                    }
                    out.push(MatrixDelta::DropReceiver(j as usize));
                }
            }
        }
        let total = total.and_then(|t| t.checked_add(edges as u64));
        if !total.is_some_and(|t| plan_ticks_fit(n1, n2, inst.k, edges, t, inst.beta)) {
            return Err(DeltaError::TickOverflow(
                "deltas exceed the planner's tick budget".into(),
            ));
        }
        Ok(out)
    }
}

/// The bounded registry of live sessions.
///
/// Ids are minted from a monotone counter starting at 1, so id 0 can mean
/// "no session" on the wire and a closed id is never recycled.
pub struct SessionTable {
    capacity: usize,
    next_id: AtomicU64,
    map: Mutex<HashMap<u64, Arc<Mutex<Session>>>>,
}

impl SessionTable {
    /// An empty table admitting at most `capacity` concurrent sessions.
    pub fn new(capacity: usize) -> SessionTable {
        SessionTable {
            capacity,
            next_id: AtomicU64::new(0),
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Admits a session and answers `answer(id, &session)` under the new
    /// session's lock, so no op on the minted id can run before the
    /// opening answer is built — or returns `None` when the table is at
    /// capacity (the caller answers `table_full`).
    pub fn open<R>(&self, session: Session, answer: impl FnOnce(u64, &Session) -> R) -> Option<R> {
        let session = Arc::new(Mutex::new(session));
        let guard = session.lock().unwrap();
        let id = {
            let mut map = self.map.lock().unwrap();
            if map.len() >= self.capacity {
                return None;
            }
            let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
            map.insert(id, Arc::clone(&session));
            id
        };
        Some(answer(id, &guard))
    }

    /// The session behind `id`, if it is still open.
    pub fn get(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        self.map.lock().unwrap().get(&id).cloned()
    }

    /// Closes `id`, returning its session (an op already holding the
    /// session's lock finishes; the id stops resolving immediately).
    pub fn close(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        self.map.lock().unwrap().remove(&id)
    }

    /// Sessions currently open.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether no session is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bipartite::Graph;
    use kpbs::Instance;

    fn session(n1: usize, n2: usize) -> Session {
        let mut g = Graph::new(n1, n2);
        g.add_edge(0, 0, 5);
        Session {
            platform: Platform::new(n1, n2, 100.0, 100.0, 200.0),
            scale: TickScale::MILLIS,
            planner: DeltaPlanner::new(Instance::new(g, 2, 1)),
        }
    }

    #[test]
    fn table_bounds_admission_and_never_recycles_ids() {
        let t = SessionTable::new(2);
        let a = t.open(session(2, 2), |id, _| id).unwrap();
        let b = t.open(session(2, 2), |id, _| id).unwrap();
        assert_ne!(a, b);
        assert!(t.open(session(2, 2), |id, _| id).is_none(), "at capacity");
        assert_eq!(t.len(), 2);

        assert!(t.close(a).is_some());
        assert!(t.get(a).is_none(), "closed ids stop resolving");
        assert!(t.close(a).is_none(), "double close is a miss");
        let c = t.open(session(2, 2), |id, _| id).unwrap();
        assert!(c > b, "ids stay monotone after a close");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn convert_bounds_checks_against_batch_order() {
        let s = session(2, 2);
        // Sender 2 is out of range now…
        let err = s
            .convert_deltas(
                &[WireDelta::SetCell {
                    sender: 2,
                    receiver: 0,
                    bytes: 1,
                }],
                1 << 20,
            )
            .unwrap_err();
        assert!(matches!(err, DeltaError::OutOfRange(_)));
        // …but fine after a grow earlier in the same batch.
        let ok = s
            .convert_deltas(
                &[
                    WireDelta::GrowNodes {
                        senders: 1,
                        receivers: 0,
                    },
                    WireDelta::SetCell {
                        sender: 2,
                        receiver: 0,
                        bytes: 1,
                    },
                    WireDelta::DropSender(2),
                ],
                1 << 20,
            )
            .unwrap();
        assert_eq!(ok.len(), 3);
    }

    #[test]
    fn convert_applies_the_cold_byte_to_tick_conversion() {
        let s = session(2, 2);
        let out = s
            .convert_deltas(
                &[WireDelta::SetCell {
                    sender: 1,
                    receiver: 1,
                    bytes: 25_000_000,
                }],
                1 << 20,
            )
            .unwrap();
        let want = kpbs::traffic::message_ticks(&s.platform, s.scale, 25_000_000);
        assert_eq!(
            out,
            vec![MatrixDelta::Set {
                sender: 1,
                receiver: 1,
                ticks: want
            }]
        );
        assert!(want > 0);
    }

    #[test]
    fn convert_refuses_cells_that_overflow_the_tick_range_or_budget() {
        let cell = |bytes| WireDelta::SetCell {
            sender: 0,
            receiver: 1,
            bytes,
        };
        // 1e-300 Mbit/s passes platform validation; a cell's duration on it
        // is not finite.
        let mut s = session(2, 2);
        s.platform = Platform::new(2, 2, 1e-300, 1e-300, 1.0);
        let err = s.convert_deltas(&[cell(u64::MAX)], 1 << 20).unwrap_err();
        assert!(matches!(err, DeltaError::TickOverflow(_)), "{err:?}");
        // Each cell fits on its own; together they overflow k·Σticks.
        let s = session(2, 2);
        let big = 1u64 << 59; // ≈ 4.6e13 ticks per cell at 100 Mbit/s
        assert!(s.convert_deltas(&[cell(big)], 1 << 20).is_ok());
        let many = vec![cell(u64::MAX); 200_000];
        let err = s.convert_deltas(&many, 1 << 20).unwrap_err();
        assert!(matches!(err, DeltaError::TickOverflow(_)), "{err:?}");
    }

    #[test]
    fn convert_refuses_growth_past_the_cell_limit() {
        let s = session(2, 2);
        let err = s
            .convert_deltas(
                &[WireDelta::GrowNodes {
                    senders: 1,
                    receivers: 1,
                }],
                8, // 3×3 = 9 > 8
            )
            .unwrap_err();
        assert_eq!(err, DeltaError::TooLarge);
    }
}
