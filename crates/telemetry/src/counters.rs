//! Deterministic work counters.
//!
//! Each counter measures *algorithmic* work — loop iterations, search
//! attempts, synthetic edges built — never time. On a fixed seed every
//! counted quantity is a pure function of the input, so two runs of the
//! same campaign produce byte-identical counter values, on any machine, at
//! any load. That makes the counters a wall-clock-free perf-regression
//! signal: `scripts/check.sh` replays a fixed-seed campaign and compares
//! against the checked-in `BENCH_counters.json`.
//!
//! # Model
//!
//! * A single global enable flag gates every increment: when disabled,
//!   [`add`]/[`incr`] cost one relaxed atomic load and a branch.
//! * Increments land in plain thread-local cells (no atomic RMW on the hot
//!   path). When a thread exits, its cells flush into global atomic totals
//!   — but a thread-local destructor may run *after* `std::thread::scope`
//!   has returned for a thread it joins implicitly, and std runs them only
//!   on a best-effort basis, so a worker whose counts must be visible the
//!   moment it is joined ends with [`flush_local`], or hands its cells to
//!   the joiner with [`take_local`] / [`add_local`].
//! * [`local_snapshot`] reads the calling thread's cells only — immune to
//!   concurrent threads, which is what tests should diff.
//!   [`global_snapshot`] adds the flushed totals of exited threads, which
//!   is what single-process tools report after joining their workers.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The work being counted. Every variant is deterministic for a fixed
/// input: none of them depends on time, scheduling or memory layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Hopcroft–Karp BFS/DFS phases (`hk_augment_to_maximum` loop turns).
    HkPhases,
    /// Augmenting-path searches from a free left node: one per Kuhn DFS
    /// started, and in the engine's threshold search one per alternating
    /// tree started or resumed.
    KuhnAttempts,
    /// Adjacency-row entries scanned by augmenting-path searches
    /// (Hopcroft–Karp and Kuhn DFS, and the threshold search's tree growth).
    DfsEdgeVisits,
    /// Max–min bottleneck threshold probes: one per threshold search of the
    /// incremental engine, one per binary-search probe of the cold path.
    ThresholdProbes,
    /// O(m) sorted-order merge passes repairing the engine's edge order.
    MergePasses,
    /// Full CSR adjacency (re)builds from a graph scan. The incremental
    /// engine performs exactly one per peeling run (at `begin`); every
    /// from-scratch matching call performs at least one. Zero growth across
    /// the peels of a run is the "no rebuilds after warm-up" guarantee.
    AdjRebuilds,
    /// Full O(n) clears of the epoch-stamped search scratch. These happen
    /// only when the 32-bit epoch wraps (once per ~4 billion searches), so
    /// any non-zero delta over a normal run is a regression: it means a
    /// per-search full-array clear crept back in.
    EpochResets,
    /// WRGP peels extracted (matchings subtracted from the regular graph).
    Peels,
    /// Filler edges added by regularisation (case 2 of Section 4.2.2).
    RegularizeFillerEdges,
    /// Pad edges added by regularisation (case 1 of Section 4.2.2).
    RegularizePadEdges,
    /// Progressive-filling rounds of the max–min fair allocator.
    FairshareRounds,
    /// Events processed by the flowsim loop (completions and breakpoints).
    FlowsimEvents,
    /// Threads arriving at an mpilite barrier.
    BarrierWaits,
    /// Planning requests admitted and served by the `redistd` serving layer
    /// (cache hits and misses both count; rejected requests do not).
    ServeRequests,
    /// Served requests answered from the plan cache without re-planning.
    ServeCacheHits,
    /// Requests rejected by admission control (queue full or matrix too
    /// large) before reaching a worker.
    ServeRejected,
    /// Transfer attempts re-issued by the execution runtime after a
    /// transient fault (each re-attempt counts one).
    ExecRetries,
    /// Residual re-planning rounds run by the execution runtime (node drop,
    /// retry exhaustion or step timeout each force at most one round).
    ExecReplans,
    /// Fault events injected into an execution (transient failures, node
    /// drops and step slowdowns all count one each).
    ExecFaultsInjected,
    /// Steps spliced into a running schedule by residual re-planning.
    ExecStepsSpliced,
    /// Node-to-block assignments performed by the hierarchical planner's
    /// partition pass (initial placement and every affinity-sweep move
    /// count one each).
    HierPartitionAssigns,
    /// Block sub-instances planned by the hierarchical planner (one per
    /// active block pair).
    HierBlockPlans,
    /// Steps emitted by the hierarchical planner's composition phase.
    HierComposeSteps,
    /// Delta replans absorbed entirely by level-0 schedule repair (trims
    /// and slack insertions; no peeling ran).
    DeltaRepairs,
    /// Delta replans that fell back to a bounded re-peel of the residual
    /// increase graph (level 1 of the repair ladder).
    DeltaRePeels,
    /// Delta replans that fell all the way back to a cold plan of the
    /// post-delta instance (level 2, including cost-ceiling rejections).
    DeltaColdFallbacks,
    /// Delta-planning sessions opened (one per `DeltaPlanner` built from a
    /// cold plan, locally or via a `redistd` OPEN frame).
    DeltaSessionsOpened,
    /// Per-bottleneck preemption bounds derived from a topology (one per
    /// backbone link each time a topology's `k_b` values are computed).
    TopoDeriveK,
    /// Traffic-matrix messages routed to their governing backbone by the
    /// topology planning adapter (one per non-zero cell).
    TopoRouteMessages,
    /// Steps emitted by the topology adapter's per-backbone schedule
    /// composition.
    TopoComposeSteps,
}

/// Number of distinct counters.
pub const COUNTER_COUNT: usize = 30;

impl Counter {
    /// Every counter, in declaration (and export) order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::HkPhases,
        Counter::KuhnAttempts,
        Counter::DfsEdgeVisits,
        Counter::ThresholdProbes,
        Counter::MergePasses,
        Counter::AdjRebuilds,
        Counter::EpochResets,
        Counter::Peels,
        Counter::RegularizeFillerEdges,
        Counter::RegularizePadEdges,
        Counter::FairshareRounds,
        Counter::FlowsimEvents,
        Counter::BarrierWaits,
        Counter::ServeRequests,
        Counter::ServeCacheHits,
        Counter::ServeRejected,
        Counter::ExecRetries,
        Counter::ExecReplans,
        Counter::ExecFaultsInjected,
        Counter::ExecStepsSpliced,
        Counter::HierPartitionAssigns,
        Counter::HierBlockPlans,
        Counter::HierComposeSteps,
        Counter::DeltaRepairs,
        Counter::DeltaRePeels,
        Counter::DeltaColdFallbacks,
        Counter::DeltaSessionsOpened,
        Counter::TopoDeriveK,
        Counter::TopoRouteMessages,
        Counter::TopoComposeSteps,
    ];

    /// Stable snake_case key used in JSON exports and summary tables.
    pub fn key(self) -> &'static str {
        match self {
            Counter::HkPhases => "hk_phases",
            Counter::KuhnAttempts => "kuhn_attempts",
            Counter::DfsEdgeVisits => "dfs_edge_visits",
            Counter::ThresholdProbes => "threshold_probes",
            Counter::MergePasses => "merge_passes",
            Counter::AdjRebuilds => "adj_rebuilds",
            Counter::EpochResets => "epoch_resets",
            Counter::Peels => "peels",
            Counter::RegularizeFillerEdges => "regularize_filler_edges",
            Counter::RegularizePadEdges => "regularize_pad_edges",
            Counter::FairshareRounds => "fairshare_rounds",
            Counter::FlowsimEvents => "flowsim_events",
            Counter::BarrierWaits => "barrier_waits",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeCacheHits => "serve_cache_hits",
            Counter::ServeRejected => "serve_rejected",
            Counter::ExecRetries => "exec_retries",
            Counter::ExecReplans => "exec_replans",
            Counter::ExecFaultsInjected => "exec_faults_injected",
            Counter::ExecStepsSpliced => "exec_steps_spliced",
            Counter::HierPartitionAssigns => "hier_partition",
            Counter::HierBlockPlans => "hier_block_plans",
            Counter::HierComposeSteps => "hier_compose",
            Counter::DeltaRepairs => "delta_repairs",
            Counter::DeltaRePeels => "delta_repeels",
            Counter::DeltaColdFallbacks => "delta_cold_fallbacks",
            Counter::DeltaSessionsOpened => "delta_sessions_opened",
            Counter::TopoDeriveK => "topo_derive_k",
            Counter::TopoRouteMessages => "topo_route",
            Counter::TopoComposeSteps => "topo_compose",
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Global totals, fed by thread-local cells when their thread exits.
static GLOBAL: [AtomicU64; COUNTER_COUNT] = [const { AtomicU64::new(0) }; COUNTER_COUNT];

struct LocalCounters {
    vals: [Cell<u64>; COUNTER_COUNT],
}

impl LocalCounters {
    /// Moves every cell into its global total, leaving the cells zero.
    fn flush(&self) {
        for (cell, total) in self.vals.iter().zip(GLOBAL.iter()) {
            let v = cell.replace(0);
            if v != 0 {
                total.fetch_add(v, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for LocalCounters {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: LocalCounters = const {
        LocalCounters { vals: [const { Cell::new(0) }; COUNTER_COUNT] }
    };
}

/// Turns counting on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns counting off (process-wide). Accumulated values are kept.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether counting is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `n` to `c` on the calling thread. No-op (one relaxed load and a
/// branch, no TLS access) when counting is disabled.
#[inline]
pub fn add(c: Counter, n: u64) {
    if !enabled() {
        return;
    }
    // Ignore increments during thread teardown, when the TLS slot is gone.
    let _ = LOCAL.try_with(|l| {
        let cell = &l.vals[c as usize];
        cell.set(cell.get() + n);
    });
}

/// Adds 1 to `c` on the calling thread; no-op when disabled.
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Moves the calling thread's cells into the global totals now instead of
/// at thread exit. A spawning thread that reads [`global_snapshot`] right
/// after `join` or `std::thread::scope` races the worker's thread-local
/// destructor, which the standard library does not order before either;
/// a worker that calls this as its last counted act is ordered by the join
/// itself. [`local_snapshot`] on the calling thread restarts from zero.
pub fn flush_local() {
    let _ = LOCAL.try_with(LocalCounters::flush);
}

/// Takes the calling thread's cells, leaving them zero. A spawned worker
/// returns this to the thread that joins it, which credits it with
/// [`add_local`]: the work then shows in the joiner's [`local_snapshot`]
/// deltas, and nothing is left to the worker's thread-local destructor.
pub fn take_local() -> Snapshot {
    let mut s = Snapshot::default();
    let _ = LOCAL.try_with(|l| {
        for (v, cell) in s.vals.iter_mut().zip(l.vals.iter()) {
            *v = cell.replace(0);
        }
    });
    s
}

/// Adds `s` into the calling thread's cells — the other half of
/// [`take_local`]. Not gated by [`enabled`]: the work was counted already.
pub fn add_local(s: &Snapshot) {
    let _ = LOCAL.try_with(|l| {
        for (cell, &v) in l.vals.iter().zip(s.vals.iter()) {
            cell.set(cell.get() + v);
        }
    });
}

/// A point-in-time copy of counter values. Obtain one via
/// [`local_snapshot`] or [`global_snapshot`]; subtract snapshots with
/// [`Snapshot::delta`] to isolate one region's work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    vals: [u64; COUNTER_COUNT],
}

impl Snapshot {
    /// Value of counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// `self - earlier`, counter by counter (counters are monotone while a
    /// thread runs, so the subtraction is saturating only defensively).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for i in 0..COUNTER_COUNT {
            out.vals[i] = self.vals[i].saturating_sub(earlier.vals[i]);
        }
        out
    }

    /// Adds `other` into `self`, counter by counter. This is the merge the
    /// parallel planners use: each worker measures its own instances with
    /// [`local_snapshot`] deltas (exact, because counters are thread-local)
    /// and the coordinator merges the per-worker deltas into one report.
    pub fn merge(&mut self, other: &Snapshot) {
        for i in 0..COUNTER_COUNT {
            self.vals[i] = self.vals[i].saturating_add(other.vals[i]);
        }
    }

    /// Sums any number of snapshots (e.g. per-instance deltas from a batch
    /// run) into one. The sum over a batch is independent of how instances
    /// were distributed over worker threads.
    pub fn sum<'a, I: IntoIterator<Item = &'a Snapshot>>(parts: I) -> Snapshot {
        let mut out = Snapshot::default();
        for p in parts {
            out.merge(p);
        }
        out
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }

    /// Iterates `(counter, value)` pairs in [`Counter::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c, self.get(c)))
    }
}

/// Snapshot of the calling thread's counters only. Unaffected by other
/// threads, so tests diff this around the region they measure.
pub fn local_snapshot() -> Snapshot {
    let mut s = Snapshot::default();
    let _ = LOCAL.try_with(|l| {
        for (v, cell) in s.vals.iter_mut().zip(l.vals.iter()) {
            *v = cell.get();
        }
    });
    s
}

/// Snapshot of the global totals (threads that have exited) plus the
/// calling thread's cells. Call after joining worker threads for a full
/// process view; live threads' unflushed work is not included.
pub fn global_snapshot() -> Snapshot {
    let mut s = local_snapshot();
    for (v, total) in s.vals.iter_mut().zip(GLOBAL.iter()) {
        *v += total.load(Ordering::Relaxed);
    }
    s
}

/// Zeroes the global totals and the calling thread's cells. Other live
/// threads' cells are untouched; call from a quiescent point.
pub fn reset() {
    for total in GLOBAL.iter() {
        total.store(0, Ordering::Relaxed);
    }
    let _ = LOCAL.try_with(|l| {
        for cell in l.vals.iter() {
            cell.set(0);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Counters are process-global; tests that toggle them must not overlap.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_increments_are_dropped() {
        let _g = LOCK.lock().unwrap();
        disable();
        let before = local_snapshot();
        add(Counter::HkPhases, 100);
        incr(Counter::Peels);
        assert_eq!(local_snapshot().delta(&before), Snapshot::default());
    }

    #[test]
    fn enabled_increments_accumulate() {
        let _g = LOCK.lock().unwrap();
        enable();
        let before = local_snapshot();
        add(Counter::DfsEdgeVisits, 3);
        incr(Counter::DfsEdgeVisits);
        incr(Counter::MergePasses);
        let d = local_snapshot().delta(&before);
        disable();
        assert_eq!(d.get(Counter::DfsEdgeVisits), 4);
        assert_eq!(d.get(Counter::MergePasses), 1);
        assert_eq!(d.get(Counter::HkPhases), 0);
        assert!(!d.is_zero());
    }

    #[test]
    fn worker_threads_flush_into_global_totals() {
        let _g = LOCK.lock().unwrap();
        enable();
        let before = global_snapshot();
        std::thread::spawn(|| add(Counter::BarrierWaits, 7))
            .join()
            .unwrap();
        let d = global_snapshot().delta(&before);
        disable();
        assert_eq!(d.get(Counter::BarrierWaits), 7);
    }

    #[test]
    fn flush_local_is_visible_right_after_a_scope() {
        let _g = LOCK.lock().unwrap();
        enable();
        // Many short rounds: without the flush the scope returns before the
        // workers' TLS destructors about every other time.
        for _ in 0..200 {
            let before = global_snapshot();
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        add(Counter::BarrierWaits, 3);
                        flush_local();
                    });
                }
            });
            let d = global_snapshot().delta(&before);
            assert_eq!(d.get(Counter::BarrierWaits), 12);
        }
        disable();
    }

    #[test]
    fn take_local_hands_a_workers_cells_to_the_joiner() {
        let _g = LOCK.lock().unwrap();
        enable();
        let local = local_snapshot();
        let global = global_snapshot();
        let taken = std::thread::spawn(|| {
            add(Counter::BarrierWaits, 5);
            let s = take_local();
            assert!(local_snapshot().is_zero(), "take_local zeroes the cells");
            s
        })
        .join()
        .unwrap();
        add_local(&taken);
        disable();
        let local = local_snapshot().delta(&local);
        let global = global_snapshot().delta(&global);
        // Leave nothing for this thread's exit to flush into the global
        // totals that other tests diff.
        take_local();
        assert_eq!(local.get(Counter::BarrierWaits), 5);
        assert_eq!(global.get(Counter::BarrierWaits), 5);
    }

    #[test]
    fn keys_are_unique_and_ordered() {
        let keys: Vec<&str> = Counter::ALL.iter().map(|c| c.key()).collect();
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), COUNTER_COUNT);
        assert_eq!(Counter::ALL[0] as usize, 0);
        assert_eq!(Counter::ALL[COUNTER_COUNT - 1] as usize, COUNTER_COUNT - 1);
    }

    #[test]
    fn merge_and_sum_accumulate_per_worker_deltas() {
        let _g = LOCK.lock().unwrap();
        enable();
        let mut parts = Vec::new();
        for n in [2u64, 3, 5] {
            let before = local_snapshot();
            add(Counter::AdjRebuilds, n);
            incr(Counter::EpochResets);
            parts.push(local_snapshot().delta(&before));
        }
        disable();
        let total = Snapshot::sum(parts.iter());
        assert_eq!(total.get(Counter::AdjRebuilds), 10);
        assert_eq!(total.get(Counter::EpochResets), 3);
        let mut manual = Snapshot::default();
        for p in &parts {
            manual.merge(p);
        }
        assert_eq!(manual, total);
    }

    #[test]
    fn snapshot_iter_matches_get() {
        let _g = LOCK.lock().unwrap();
        enable();
        let before = local_snapshot();
        add(Counter::FlowsimEvents, 5);
        let d = local_snapshot().delta(&before);
        disable();
        for (c, v) in d.iter() {
            assert_eq!(v, d.get(c));
        }
    }
}
