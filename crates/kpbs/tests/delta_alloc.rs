//! Allocation pin for [`DeltaPlanner::replan`]: a Repair-level replan of a
//! 2-cell batch must cost what its repair costs — a bounded handful of heap
//! allocations, not a per-step or per-transfer pile of them. A counting
//! global allocator tallies the allocations the test thread makes inside
//! each replan.

use bipartite::Graph;
use kpbs::{DeltaPlanner, Instance, MatrixDelta, RepairLevel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are exactly the ones `System` requires; the tally
// touches only `const`-initialised thread-local `Cell`s, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get))
}

/// At most this many allocations per Repair-level replan of a 2-cell batch.
const MAX_REPAIR_ALLOCS: u64 = 32;

#[test]
fn repair_replans_allocate_a_bounded_handful() {
    const N: usize = 64;
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut g = Graph::new(N, N);
    for i in 0..N {
        for j in 0..N {
            if next() % 10 < 4 {
                g.add_edge(i, j, 1 + next() % 960);
            }
        }
    }
    let mut planner = DeltaPlanner::new(Instance::new(g, 4, 10));
    let steps = planner.schedule().num_steps();
    assert!(
        steps >= 500,
        "the pin needs a long schedule, got {steps} steps"
    );

    let (mut repairs, mut total, mut worst) = (0u64, 0u64, 0u64);
    for _ in 0..200 {
        let mut set = || {
            let (sender, receiver) = ((next() % N as u64) as usize, (next() % N as u64) as usize);
            let ticks = if next() % 10 < 6 { 0 } else { 1 + next() % 960 };
            MatrixDelta::Set {
                sender,
                receiver,
                ticks,
            }
        };
        let batch = [set(), set()];
        let (outcome, allocs) = allocations(|| planner.replan(&batch));
        if outcome.level == RepairLevel::Repair {
            repairs += 1;
            total += allocs;
            worst = worst.max(allocs);
        }
    }
    assert!(repairs >= 100, "only {repairs} of 200 rounds repaired");
    assert!(
        worst <= MAX_REPAIR_ALLOCS,
        "a Repair-level replan of a {steps}-step schedule allocated {worst} times \
         (mean {:.1} over {repairs}); the bound is {MAX_REPAIR_ALLOCS}",
        total as f64 / repairs as f64
    );
}
