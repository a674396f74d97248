//! Parallel multi-instance planning.
//!
//! A production redistribution planner rarely sees one request at a time: a
//! campaign sweep, a `--compare` run or a traffic replay schedules dozens of
//! independent [`Instance`](crate::Instance)s. They share no state — every
//! scheduler in this crate takes `&Instance` and builds its own graphs — so
//! the batch is embarrassingly parallel. This module provides the one
//! fan-out primitive, [`parallel_map`].
//!
//! # Determinism
//!
//! Results are returned in input order and each instance is scheduled by the
//! same deterministic code regardless of which worker picks it up, so the
//! output is **byte-identical for every `jobs` value** (the `redistplan
//! --jobs` CLI and `scripts/check.sh` gate on exactly that). Work is handed
//! out by an atomic index rather than pre-chunked, so stragglers never
//! serialise the tail; a caller that knows its item sizes passes them
//! largest first (as [`mod@crate::hier`] does) to keep that tail short.
//!
//! # Workers
//!
//! The calling thread is one of the `jobs` workers: a fan-out spawns
//! `jobs - 1` scoped threads and runs the same work loop itself, so
//! `jobs = 2` costs one spawn and no idle caller. A [`parallel_map`]
//! started on any worker of a running fan-out — the caller included — runs
//! inline, so nesting (`redistplan --jobs N --algo hier`, whose per-matrix
//! fan-out calls the hierarchical planner's per-block one) never puts more
//! than `jobs` threads on the cores.
//!
//! # Telemetry across threads
//!
//! Work counters are thread-local cells (see [`telemetry::counters`]), which
//! makes per-instance measurement exact under parallelism: an item that
//! snapshots its own worker's cells around its run measures only itself,
//! and [`Snapshot::sum`] merges such deltas after the join. Each spawned
//! worker ends by handing its cells to the caller
//! ([`counters::take_local`]), which adds them into its own
//! ([`counters::add_local`]) before `parallel_map` returns. So the caller's
//! `local_snapshot` delta around a fan-out is its whole work, the same for
//! every `jobs`, and process totals never depend on a worker's thread-local
//! destructor (which the standard library runs only on a best-effort
//! basis). Each spawned worker also flushes its span buffer
//! ([`spans::flush_local`]) before it is joined, so a `drain_all` after a
//! batch sees every worker's spans.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use telemetry::counters::{self, Snapshot};
use telemetry::spans;

thread_local! {
    /// Set while this thread works through the items of a fan-out.
    static IN_FAN_OUT: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a fan-out worker until dropped (unwinding
/// included), so nested [`parallel_map`] calls on it run inline.
struct FanOutWorker;

impl FanOutWorker {
    fn enter() -> FanOutWorker {
        IN_FAN_OUT.set(true);
        FanOutWorker
    }
}

impl Drop for FanOutWorker {
    fn drop(&mut self) {
        IN_FAN_OUT.set(false);
    }
}

/// Applies `f` to every item on `jobs` workers — the calling thread and
/// `jobs - 1` scoped threads — and returns the results in input order.
///
/// Runs inline on the calling thread, spawning nothing, when `jobs == 1`,
/// when there is at most one item, or when the calling thread is itself a
/// worker of a running fan-out. `jobs == 0` is treated as 1. The worker
/// count is capped at `items.len()`. The spawned workers' work counters are
/// credited to the calling thread before this returns (see the module
/// docs).
///
/// # Panics
///
/// Panics if `f` panics on any item: the payload of one such panic is
/// forwarded once every worker has been joined.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 || IN_FAN_OUT.get() {
        return items.iter().map(&f).collect();
    }
    // Atomic work queue: each worker claims the next unclaimed index. The
    // item → worker assignment depends on timing, but since f is pure per
    // item and results are reordered by index below, the output does not.
    let next = AtomicUsize::new(0);
    let work = || {
        let _worker = FanOutWorker::enter();
        let mut mine: Vec<(usize, R)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            mine.push((i, f(&items[i])));
        }
        mine
    };
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(items.len());
    let mut credit = Snapshot::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mine = work();
                    spans::flush_local();
                    (mine, counters::take_local())
                })
            })
            .collect();
        tagged.extend(work());
        for h in handles {
            match h.join() {
                Ok((mine, cells)) => {
                    tagged.extend(mine);
                    credit.merge(&cells);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    counters::add_local(&credit);
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Instance;
    use crate::schedule::Schedule;
    use bipartite::generate::{random_graph, GraphParams};
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::panic::AssertUnwindSafe;
    use std::time::{Duration, Instant};
    use telemetry::counters::Counter;
    use telemetry::spans::SpanPhase;

    fn campaign(count: usize, seed: u64) -> Vec<Instance> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let params = GraphParams {
            max_nodes_per_side: 8,
            max_edges: 40,
            weight_range: (1, 20),
        };
        (0..count)
            .map(|_| {
                let g = random_graph(&mut rng, &params);
                let kmax = g.left_count().min(g.right_count()).max(1);
                let k = rng.gen_range(1..=kmax);
                let beta = rng.gen_range(0..4);
                Instance::new(g, k, beta)
            })
            .collect()
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..101).collect();
        for jobs in [1, 3, 8, 200] {
            let out = parallel_map(&items, jobs, |&x| x * 2);
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |&x| x + 1), vec![8]);
        assert_eq!(parallel_map(&[7u32], 0, |&x| x + 1), vec![8]);
    }

    /// Blocks until `started` reaches `n` (or a generous timeout passes, so
    /// a broken fan-out fails the test instead of hanging it).
    fn wait_for(started: &AtomicUsize, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while started.load(Ordering::SeqCst) < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn parallel_map_caller_is_one_of_the_workers() {
        let caller = std::thread::current().id();
        let started = AtomicUsize::new(0);
        // Each item waits until both have started, so each of the two
        // workers holds exactly one.
        let ids = parallel_map(&[0u8, 1], 2, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            wait_for(&started, 2);
            std::thread::current().id()
        });
        assert_eq!(started.load(Ordering::SeqCst), 2);
        assert_eq!(ids.iter().filter(|&&id| id == caller).count(), 1);
        assert_ne!(ids[0], ids[1], "two jobs, two threads");
    }

    #[test]
    fn nested_parallel_map_runs_on_the_outer_workers_thread() {
        let started = AtomicUsize::new(0);
        let outer = parallel_map(&[0u8, 1], 2, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            wait_for(&started, 2);
            let me = std::thread::current().id();
            let inner: Vec<usize> = (0..8).collect();
            let ids = parallel_map(&inner, 4, |_| std::thread::current().id());
            (me, ids)
        });
        assert_ne!(outer[0].0, outer[1].0);
        for (me, ids) in outer {
            assert!(ids.iter().all(|&id| id == me), "nested fan-out left {me:?}");
        }
        // Outside any fan-out the flag is clear again: a fresh call spreads.
        let started = AtomicUsize::new(0);
        let ids = parallel_map(&[0u8, 1], 2, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            wait_for(&started, 2);
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn parallel_map_forwards_a_worker_panic() {
        let caller = std::thread::current().id();
        let spawned_ran = AtomicUsize::new(0);
        let items: Vec<usize> = (0..8).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, 2, |_| {
                if std::thread::current().id() == caller {
                    // Hold the caller until the spawned worker has an item.
                    wait_for(&spawned_ran, 1);
                } else {
                    spawned_ran.fetch_add(1, Ordering::SeqCst);
                    panic!("boom in a spawned worker");
                }
            })
        }));
        let payload = result.expect_err("the worker's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom in a spawned worker")
        );
        // The caller's own panics propagate too.
        let result = std::panic::catch_unwind(|| {
            parallel_map(&[0u8, 1, 2], 2, |_| -> u8 { panic!("boom everywhere") })
        });
        assert!(result.is_err());
    }

    #[test]
    fn worker_counts_and_spans_reach_the_caller_before_return() {
        let _guard = crate::testutil::COUNTER_LOCK.lock().unwrap();
        // No kpbs code counts barrier waits, so concurrent tests cannot
        // disturb the global delta; spans are filtered by name.
        const ITEM: &str = "kpbs.batch_test_item";
        let items: Vec<usize> = (0..16).collect();
        counters::enable();
        spans::enable();
        for round in 0..200 {
            let local = counters::local_snapshot();
            let global = counters::global_snapshot();
            parallel_map(&items, 4, |_| {
                let _s = telemetry::span(ITEM);
                counters::incr(Counter::BarrierWaits);
            });
            let local = counters::local_snapshot().delta(&local);
            let global = counters::global_snapshot().delta(&global);
            let begins = spans::drain_all()
                .iter()
                .filter(|e| e.name == ITEM && e.phase == SpanPhase::Begin)
                .count();
            assert_eq!(local.get(Counter::BarrierWaits), 16, "round {round}");
            assert_eq!(global.get(Counter::BarrierWaits), 16, "round {round}");
            assert_eq!(begins, 16, "round {round}");
        }
        spans::disable();
        counters::disable();
        // Leave nothing for this thread's exit to flush into global totals.
        counters::take_local();
    }

    #[test]
    fn merged_work_is_jobs_invariant() {
        let _guard = crate::testutil::COUNTER_LOCK.lock().unwrap();
        let instances = campaign(16, 12);
        let expect: Vec<Schedule> = instances.iter().map(crate::oggp::oggp).collect();
        counters::enable();
        // Each item measures its own worker's cells, so the per-instance
        // deltas and the caller's delta around the fan-out are exact under
        // any worker count.
        let run = |jobs: usize| {
            let before = counters::local_snapshot();
            let planned = parallel_map(&instances, jobs, |inst| {
                let before = counters::local_snapshot();
                let schedule = crate::oggp::oggp(inst);
                (schedule, counters::local_snapshot().delta(&before))
            });
            let caller = counters::local_snapshot().delta(&before);
            let (schedules, work): (Vec<Schedule>, Vec<Snapshot>) = planned.into_iter().unzip();
            (schedules, work, caller)
        };
        let (schedules, work, caller) = run(1);
        assert!(!caller.is_zero(), "scheduling must count some work");
        assert_eq!(
            Snapshot::sum(&work),
            caller,
            "the caller's delta is the sum"
        );
        for jobs in [4, 8] {
            let got = run(jobs);
            assert_eq!(got.0, schedules, "jobs = {jobs} changed the schedules");
            assert_eq!(got.1, work, "per-instance work must not depend on jobs");
            assert_eq!(got.2, caller);
        }
        counters::disable();
        counters::take_local();
        assert_eq!(schedules, expect, "a fan-out plans what a loop plans");
        for (inst, s) in instances.iter().zip(&expect) {
            s.validate(inst).unwrap();
        }
    }
}
