//! Flat CSR adjacency and epoch-stamped search scratch: the memory layout
//! of every matching hot path in this crate.
//!
//! # Why CSR
//!
//! The matching routines used to carry a `Vec<Vec<(u32, EdgeId)>>` — one
//! heap allocation per left node, rebuilt from the graph on every call.
//! [`CsrAdj`] replaces that with three flat vectors:
//!
//! ```text
//! offsets: [0,      3,   5,         9]      row capacities (prefix sums)
//! len:     [  2,      2,    3        ]      live entries per row
//! targets: [a b _ | c d | e f g _   ]       (right node, edge id) pairs
//!           row 0   row 1  row 2
//! ```
//!
//! `offsets` fixes each row's *capacity* from the degrees at build time;
//! `len` tracks how many slots are live. Rows only ever shrink between
//! rebuilds (WRGP peeling removes edges, never adds them), so the layout
//! built once per peeling run serves every peel: removal is an
//! order-preserving shift within the row ([`CsrAdj::remove`]), re-adding
//! for threshold probes is an O(1) [`CsrAdj::push`]. One contiguous block
//! means one allocation amortised across the run and linear scans that
//! prefetch, where the nested layout chased a pointer per row.
//!
//! # Why epoch stamps
//!
//! BFS/DFS searches need per-node `visited`/`dist` state that resets
//! between searches. Clearing an array is O(n) per search — measurable when
//! a peel does hundreds of tiny augmentations. [`SearchState`] instead
//! stamps each write with the current epoch: a slot is "set" only if its
//! stamp equals the current epoch, and [`SearchState::next_epoch`] resets
//! everything in O(1) by bumping the epoch. The arrays are physically
//! cleared only when the 32-bit epoch wraps (counted as
//! [`Counter::EpochResets`] — in practice never), so after warm-up a peel
//! loop performs **zero allocations and zero full-array clears**.
//!
//! Invariants:
//!
//! * `stamp[i] == epoch` ⟺ slot `i` was written during the current search;
//!   `dist(i)` reads as `INF` and `visited(i)` as `false` otherwise.
//! * `epoch` strictly increases across [`SearchState::next_epoch`] calls,
//!   so stale stamps from any earlier search (or earlier engine run) can
//!   never alias the current epoch. New slots from a resize are stamped 0,
//!   which is never current (`next_epoch` is called before every search).

use crate::graph::{EdgeId, Graph};
use std::collections::VecDeque;
use telemetry::counters::{self, Counter};

pub(crate) const NIL: u32 = u32::MAX;
pub(crate) const INF: u32 = u32::MAX;

/// Flat compressed-sparse-row adjacency over the left side of a bipartite
/// graph: row `l` holds `(right node, edge id)` pairs for left node `l`.
///
/// Built with [`build`](CsrAdj::build)/[`build_where`](CsrAdj::build_where)
/// (each counted as one [`Counter::AdjRebuilds`]) and then maintained in
/// place: [`remove`](CsrAdj::remove) for dying edges,
/// [`push`](CsrAdj::push)/[`clear_rows`](CsrAdj::clear_rows) for probe
/// subsets sharing the same row layout via
/// [`clone_layout`](CsrAdj::clone_layout).
#[derive(Debug, Clone, Default)]
pub struct CsrAdj {
    /// Row capacity layout: row `l` owns `targets[offsets[l]..offsets[l+1]]`.
    offsets: Vec<u32>,
    /// Live entries per row (`len[l] <= offsets[l+1] - offsets[l]`).
    len: Vec<u32>,
    /// Flat `(right node, edge id)` storage for all rows.
    targets: Vec<(u32, EdgeId)>,
}

impl CsrAdj {
    /// An empty adjacency; size it with a `build*` or `clone_layout` call.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows (left nodes) the current layout covers.
    pub fn rows(&self) -> usize {
        self.len.len()
    }

    /// Rebuilds from every live edge of `g`: row `l` lists the edges of
    /// left node `l` in ascending edge-id order (the iteration order of
    /// [`Graph::edges`]). O(n + m); counts one [`Counter::AdjRebuilds`].
    pub fn build(&mut self, g: &Graph) {
        self.build_where(g, |_| true);
    }

    /// Like [`build`](CsrAdj::build), but keeps only edges satisfying
    /// `keep`. Row capacities still cover the *full* live degree, so edges
    /// filtered out now can be [`push`](CsrAdj::push)ed later without
    /// reallocation.
    pub fn build_where<F: FnMut(EdgeId) -> bool>(&mut self, g: &Graph, mut keep: F) {
        counters::incr(Counter::AdjRebuilds);
        let nl = g.left_count();
        self.offsets.clear();
        self.offsets.reserve(nl + 1);
        let mut acc = 0u32;
        self.offsets.push(0);
        for l in 0..nl {
            acc += g.degree_left(l) as u32;
            self.offsets.push(acc);
        }
        self.len.clear();
        self.len.resize(nl, 0);
        self.targets.clear();
        self.targets.resize(acc as usize, (0, EdgeId(0)));
        for (id, l, r, _) in g.edges() {
            if keep(id) {
                let slot = self.offsets[l] + self.len[l];
                self.targets[slot as usize] = (r as u32, id);
                self.len[l] += 1;
            }
        }
    }

    /// Adopts `other`'s row layout (offsets and capacity) with every row
    /// empty. Does *not* count as a rebuild: no graph scan happens, and the
    /// probe adjacencies using this share the one layout built per run.
    pub fn clone_layout(&mut self, other: &CsrAdj) {
        self.offsets.clear();
        self.offsets.extend_from_slice(&other.offsets);
        self.len.clear();
        self.len.resize(other.len.len(), 0);
        self.targets.clear();
        self.targets.resize(other.targets.len(), (0, EdgeId(0)));
    }

    /// The live entries of row `l`, in the order they were inserted.
    #[inline]
    pub fn row(&self, l: usize) -> &[(u32, EdgeId)] {
        let start = self.offsets[l] as usize;
        &self.targets[start..start + self.len[l] as usize]
    }

    /// Empties every row in O(rows), keeping the layout.
    pub fn clear_rows(&mut self) {
        self.len.fill(0);
    }

    /// Appends `(r, e)` to row `l` in O(1).
    ///
    /// # Panics
    ///
    /// Debug-panics if the row's fixed capacity is exceeded (cannot happen
    /// for edge subsets of the graph the layout was built from).
    #[inline]
    pub fn push(&mut self, l: usize, r: u32, e: EdgeId) {
        let slot = self.offsets[l] + self.len[l];
        debug_assert!(
            slot < self.offsets[l + 1],
            "row {l} exceeds its fixed capacity"
        );
        self.targets[slot as usize] = (r, e);
        self.len[l] += 1;
    }

    /// Inserts `(r, e)` into row `l` at the position keeping the row sorted
    /// by ascending edge id — the order [`build`](CsrAdj::build) produces —
    /// in O(row length). Rows maintained only by this, [`remove`] and
    /// [`clear_rows`] therefore always look like a fresh `build_where` of
    /// their content, which is what lets the engine's probe adjacency serve
    /// as the canonical filtered adjacency without any rebuild.
    ///
    /// [`remove`]: CsrAdj::remove
    /// [`clear_rows`]: CsrAdj::clear_rows
    ///
    /// # Panics
    ///
    /// Debug-panics if the row's fixed capacity is exceeded.
    pub fn insert_by_id(&mut self, l: usize, r: u32, e: EdgeId) {
        let start = self.offsets[l] as usize;
        let n = self.len[l] as usize;
        debug_assert!(
            self.offsets[l] + self.len[l] < self.offsets[l + 1],
            "row {l} exceeds its fixed capacity"
        );
        let row = &mut self.targets[start..start + n + 1];
        let pos = row[..n].partition_point(|&(_, id)| id < e);
        row.copy_within(pos..n, pos + 1);
        row[pos] = (r, e);
        self.len[l] += 1;
    }

    /// Removes edge `e` from row `l`, preserving the order of the remaining
    /// entries (so traversal order stays the ascending-id build order).
    /// O(row length); no-op if `e` is not present.
    pub fn remove(&mut self, l: usize, e: EdgeId) {
        let start = self.offsets[l] as usize;
        let n = self.len[l] as usize;
        let row = &mut self.targets[start..start + n];
        if let Some(pos) = row.iter().position(|&(_, id)| id == e) {
            row.copy_within(pos + 1.., pos);
            self.len[l] -= 1;
        }
    }

    /// Total live entries across all rows. O(rows); used by debug
    /// assertions checking the adjacency tracks the graph.
    pub fn live_entries(&self) -> usize {
        self.len.iter().map(|&n| n as usize).sum()
    }
}

/// Epoch-stamped BFS/DFS scratch shared by every search in this crate:
/// `visited` marks for Kuhn augmentation and BFS layers (`dist`) for
/// Hopcroft–Karp, plus the BFS queue. See the module docs for the stamp
/// invariants.
#[derive(Debug, Clone, Default)]
pub struct SearchState {
    stamp: Vec<u32>,
    dist: Vec<u32>,
    epoch: u32,
    pub(crate) queue: VecDeque<u32>,
}

impl SearchState {
    /// An empty state; [`prepare`](SearchState::prepare) sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures capacity for `n` nodes and opens a fresh epoch. Grown slots
    /// are stamped 0, which is never the current epoch, so they read as
    /// unvisited without any clearing.
    pub fn prepare(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
        }
        self.next_epoch();
    }

    /// Invalidates every mark in O(1) by opening a new epoch. On the (once
    /// per ~4 billion searches) 32-bit wrap the stamp array is physically
    /// cleared, counted as [`Counter::EpochResets`].
    #[inline]
    pub fn next_epoch(&mut self) {
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                counters::incr(Counter::EpochResets);
                self.stamp.fill(0);
                1
            }
        };
    }

    /// Marks `l` visited; returns `false` if it already was this epoch.
    #[inline]
    pub fn try_visit(&mut self, l: usize) -> bool {
        if self.stamp[l] == self.epoch {
            false
        } else {
            self.stamp[l] = self.epoch;
            true
        }
    }

    /// BFS layer of `l`, or `INF` when unset this epoch.
    #[inline]
    pub fn dist(&self, l: usize) -> u32 {
        if self.stamp[l] == self.epoch {
            self.dist[l]
        } else {
            INF
        }
    }

    /// Sets the BFS layer of `l` (stamping it into the current epoch).
    /// Storing `INF` marks the node dead for the rest of this epoch's DFS,
    /// exactly like the dense-array algorithm's `dist[l] = INF`.
    #[inline]
    pub fn set_dist(&mut self, l: usize, d: u32) {
        self.stamp[l] = self.epoch;
        self.dist[l] = d;
    }

    /// Forces the epoch counter (test hook for exercising wrap-around).
    #[cfg(test)]
    pub(crate) fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> Graph {
        // left 0: edges to right 0,1; left 1: none; left 2: edges to 1,2.
        let mut g = Graph::new(3, 3);
        g.add_edge(0, 0, 1);
        g.add_edge(0, 1, 2);
        g.add_edge(2, 1, 3);
        g.add_edge(2, 2, 4);
        g
    }

    #[test]
    fn build_matches_graph_rows_in_id_order() {
        let g = ladder();
        let mut adj = CsrAdj::new();
        adj.build(&g);
        assert_eq!(adj.rows(), 3);
        assert_eq!(adj.live_entries(), 4);
        assert_eq!(adj.row(0), &[(0, EdgeId(0)), (1, EdgeId(1))]);
        assert_eq!(adj.row(1), &[]);
        assert_eq!(adj.row(2), &[(1, EdgeId(2)), (2, EdgeId(3))]);
    }

    #[test]
    fn build_where_keeps_full_capacity() {
        let g = ladder();
        let mut adj = CsrAdj::new();
        adj.build_where(&g, |e| g.weight(e) >= 3);
        assert_eq!(adj.row(0), &[]);
        assert_eq!(adj.row(2), &[(1, EdgeId(2)), (2, EdgeId(3))]);
        // Rows filtered at build time still accept their full degree.
        adj.push(0, 0, EdgeId(0));
        adj.push(0, 1, EdgeId(1));
        assert_eq!(adj.row(0), &[(0, EdgeId(0)), (1, EdgeId(1))]);
    }

    #[test]
    fn remove_preserves_order() {
        let g = ladder();
        let mut adj = CsrAdj::new();
        adj.build(&g);
        adj.remove(2, EdgeId(2));
        assert_eq!(adj.row(2), &[(2, EdgeId(3))]);
        adj.remove(2, EdgeId(2)); // absent: no-op
        assert_eq!(adj.row(2), &[(2, EdgeId(3))]);
        assert_eq!(adj.live_entries(), 3);
    }

    #[test]
    fn clone_layout_shares_capacity_not_content() {
        let g = ladder();
        let mut adj = CsrAdj::new();
        adj.build(&g);
        let mut probe = CsrAdj::new();
        probe.clone_layout(&adj);
        assert_eq!(probe.rows(), 3);
        assert_eq!(probe.live_entries(), 0);
        probe.push(2, 2, EdgeId(3));
        probe.push(2, 1, EdgeId(2));
        // Insertion order, not id order: probes push heaviest first.
        assert_eq!(probe.row(2), &[(2, EdgeId(3)), (1, EdgeId(2))]);
        probe.clear_rows();
        assert_eq!(probe.live_entries(), 0);
    }

    #[test]
    fn insert_by_id_restores_build_order() {
        let g = ladder();
        let mut adj = CsrAdj::new();
        adj.build(&g);
        let mut probe = CsrAdj::new();
        probe.clone_layout(&adj);
        // Inserted heaviest-first (ids 3, 2), stored ascending by id.
        probe.insert_by_id(2, 2, EdgeId(3));
        probe.insert_by_id(2, 1, EdgeId(2));
        assert_eq!(probe.row(2), adj.row(2));
        probe.remove(2, EdgeId(2));
        probe.insert_by_id(2, 1, EdgeId(2));
        assert_eq!(probe.row(2), adj.row(2));
    }

    #[test]
    fn epoch_bump_invalidates_marks_without_clearing() {
        let mut s = SearchState::new();
        s.prepare(4);
        assert!(s.try_visit(1));
        assert!(!s.try_visit(1));
        s.set_dist(2, 7);
        assert_eq!(s.dist(2), 7);
        assert_eq!(s.dist(3), INF);
        s.next_epoch();
        assert_eq!(s.dist(2), INF);
        assert!(s.try_visit(1));
    }

    #[test]
    fn prepare_grows_without_stale_marks() {
        let mut s = SearchState::new();
        s.prepare(2);
        assert!(s.try_visit(0));
        s.prepare(5);
        // New epoch: old marks gone, new slots unvisited.
        for l in 0..5 {
            assert!(s.try_visit(l), "slot {l} must start unvisited");
        }
    }

    #[test]
    fn epoch_wrap_clears_and_counts() {
        use telemetry::counters::{self, Counter};
        let _g = crate::testutil::COUNTER_LOCK.lock().unwrap();
        let mut s = SearchState::new();
        s.prepare(3);
        s.try_visit(0);
        s.force_epoch(u32::MAX);
        s.try_visit(1); // stamped u32::MAX
        counters::enable();
        let before = counters::local_snapshot();
        s.next_epoch(); // wraps: full clear, epoch back to 1
        let delta = counters::local_snapshot().delta(&before);
        counters::disable();
        assert_eq!(delta.get(Counter::EpochResets), 1);
        // Every slot is unvisited again, including the one stamped MAX.
        for l in 0..3 {
            assert!(s.try_visit(l));
        }
    }
}
