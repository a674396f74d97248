//! A mutable weighted bipartite multigraph.
//!
//! Node identifiers are plain `usize` indices, scoped to a [`Side`]: left
//! nodes `0..left_count()` and right nodes `0..right_count()`. Edges carry
//! integer weights ("ticks") and a stable [`EdgeId`]; removing an edge (or
//! peeling its weight down to zero) tombstones it without invalidating other
//! ids, which is what the scheduler's peeling loops need.

/// Integer edge weight in scheduler ticks.
pub type Weight = u64;

/// Which side of the bipartition a node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Sender side (cluster `C1` in the paper).
    Left,
    /// Receiver side (cluster `C2` in the paper).
    Right,
}

/// Stable identifier of an edge within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel for "no edge" in the intrusive live lists.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct EdgeData {
    left: u32,
    right: u32,
    weight: Weight,
    alive: bool,
    // Intrusive doubly-linked list links, valid only while `alive`. Each
    // live edge sits on three lists: the global live list and the live
    // lists of its two endpoints. All three are kept in ascending-id
    // order (edges are appended at creation, in id order, and unlinking
    // preserves relative order), so iteration order matches the old
    // scan-and-filter implementation exactly.
    prev_live: u32,
    next_live: u32,
    prev_at_left: u32,
    next_at_left: u32,
    prev_at_right: u32,
    next_at_right: u32,
}

/// A weighted bipartite multigraph with tombstoned edge removal.
///
/// Parallel edges between the same `(left, right)` pair are allowed (the
/// regularisation step of GGP can create them), and every query skips dead
/// edges transparently.
///
/// Live edges are threaded through intrusive doubly-linked lists (one
/// global, one per node), so edge iteration, adjacency iteration, and
/// degrees cost O(live) / O(1) regardless of how many edges have been
/// tombstoned — late WRGP peels no longer pay to skip dead edges.
#[derive(Debug, Clone)]
pub struct Graph {
    edges: Vec<EdgeData>,
    live_head: u32,
    live_tail: u32,
    left_head: Vec<u32>,
    left_tail: Vec<u32>,
    left_deg: Vec<u32>,
    right_head: Vec<u32>,
    right_tail: Vec<u32>,
    right_deg: Vec<u32>,
    live_edges: usize,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new(0, 0)
    }
}

impl Graph {
    /// Creates a graph with `left` and `right` isolated nodes and no edges.
    pub fn new(left: usize, right: usize) -> Self {
        Graph {
            edges: Vec::new(),
            live_head: NIL,
            live_tail: NIL,
            left_head: vec![NIL; left],
            left_tail: vec![NIL; left],
            left_deg: vec![0; left],
            right_head: vec![NIL; right],
            right_tail: vec![NIL; right],
            right_deg: vec![0; right],
            live_edges: 0,
        }
    }

    /// Number of left-side nodes.
    #[inline]
    pub fn left_count(&self) -> usize {
        self.left_head.len()
    }

    /// Number of right-side nodes.
    #[inline]
    pub fn right_count(&self) -> usize {
        self.right_head.len()
    }

    /// Total number of nodes, `n = |V1| + |V2|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.left_count() + self.right_count()
    }

    /// Number of live (non-removed) edges, `m = |E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// True when the graph has no live edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live_edges == 0
    }

    /// One past the largest edge id ever allocated (dead or alive). Edge ids
    /// are stable for the lifetime of the graph, so a `Vec` of this length
    /// indexed by [`EdgeId::index`] covers every id the graph can produce.
    #[inline]
    pub fn edge_id_bound(&self) -> usize {
        self.edges.len()
    }

    /// Appends a new left-side node and returns its index.
    pub fn add_left_node(&mut self) -> usize {
        self.left_head.push(NIL);
        self.left_tail.push(NIL);
        self.left_deg.push(0);
        self.left_head.len() - 1
    }

    /// Appends a new right-side node and returns its index.
    pub fn add_right_node(&mut self) -> usize {
        self.right_head.push(NIL);
        self.right_tail.push(NIL);
        self.right_deg.push(0);
        self.right_head.len() - 1
    }

    /// Adds an edge of weight `weight` between left node `left` and right
    /// node `right`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or `weight == 0` (zero-weight
    /// communications do not exist in the model; use no edge instead).
    pub fn add_edge(&mut self, left: usize, right: usize, weight: Weight) -> EdgeId {
        assert!(left < self.left_count(), "left node {left} out of range");
        assert!(
            right < self.right_count(),
            "right node {right} out of range"
        );
        assert!(weight > 0, "edges must have positive weight");
        let raw = u32::try_from(self.edges.len()).expect("too many edges");
        assert!(raw != NIL, "edge id space exhausted");
        let id = EdgeId(raw);
        self.edges.push(EdgeData {
            left: left as u32,
            right: right as u32,
            weight,
            alive: true,
            prev_live: self.live_tail,
            next_live: NIL,
            prev_at_left: self.left_tail[left],
            next_at_left: NIL,
            prev_at_right: self.right_tail[right],
            next_at_right: NIL,
        });
        // Append to the tails: ids are created in ascending order, so
        // tail-appends keep every live list id-sorted.
        if self.live_tail == NIL {
            self.live_head = raw;
        } else {
            self.edges[self.live_tail as usize].next_live = raw;
        }
        self.live_tail = raw;
        if self.left_tail[left] == NIL {
            self.left_head[left] = raw;
        } else {
            self.edges[self.left_tail[left] as usize].next_at_left = raw;
        }
        self.left_tail[left] = raw;
        if self.right_tail[right] == NIL {
            self.right_head[right] = raw;
        } else {
            self.edges[self.right_tail[right] as usize].next_at_right = raw;
        }
        self.right_tail[right] = raw;
        self.left_deg[left] += 1;
        self.right_deg[right] += 1;
        self.live_edges += 1;
        id
    }

    /// True when edge `e` exists and has not been removed.
    #[inline]
    pub fn is_alive(&self, e: EdgeId) -> bool {
        self.edges.get(e.index()).is_some_and(|d| d.alive)
    }

    /// Left endpoint of edge `e` (valid even for removed edges).
    #[inline]
    pub fn left_of(&self, e: EdgeId) -> usize {
        self.edges[e.index()].left as usize
    }

    /// Right endpoint of edge `e` (valid even for removed edges).
    #[inline]
    pub fn right_of(&self, e: EdgeId) -> usize {
        self.edges[e.index()].right as usize
    }

    /// Current weight of edge `e`. Zero for removed edges.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> Weight {
        let d = &self.edges[e.index()];
        if d.alive {
            d.weight
        } else {
            0
        }
    }

    /// Overwrites the weight of live edge `e`; setting it to zero removes the
    /// edge.
    pub fn set_weight(&mut self, e: EdgeId, weight: Weight) {
        assert!(self.is_alive(e), "cannot set weight of a removed edge");
        if weight == 0 {
            self.remove_edge(e);
        } else {
            self.edges[e.index()].weight = weight;
        }
    }

    /// Decreases the weight of live edge `e` by `delta`, removing the edge
    /// when it reaches zero. This is the peeling primitive of WRGP.
    ///
    /// # Panics
    ///
    /// Panics if `delta` exceeds the current weight.
    pub fn decrease_weight(&mut self, e: EdgeId, delta: Weight) {
        assert!(self.is_alive(e), "cannot peel a removed edge");
        let d = &mut self.edges[e.index()];
        assert!(
            delta <= d.weight,
            "peel of {delta} exceeds weight {}",
            d.weight
        );
        d.weight -= delta;
        if d.weight == 0 {
            let id = e;
            self.remove_edge(id);
        }
    }

    /// Tombstones edge `e` in O(1). Other edge ids remain valid, and
    /// `left_of` / `right_of` still answer for the removed edge.
    pub fn remove_edge(&mut self, e: EdgeId) {
        let i = e.index();
        if !self.edges[i].alive {
            return;
        }
        self.edges[i].alive = false;
        self.edges[i].weight = 0;
        self.live_edges -= 1;

        let d = &self.edges[i];
        let (gp, gn) = (d.prev_live, d.next_live);
        let (l, lp, ln) = (d.left as usize, d.prev_at_left, d.next_at_left);
        let (r, rp, rn) = (d.right as usize, d.prev_at_right, d.next_at_right);

        // Unlink from the global live list.
        match gp {
            NIL => self.live_head = gn,
            p => self.edges[p as usize].next_live = gn,
        }
        match gn {
            NIL => self.live_tail = gp,
            n => self.edges[n as usize].prev_live = gp,
        }
        // Unlink from the left endpoint's list.
        match lp {
            NIL => self.left_head[l] = ln,
            p => self.edges[p as usize].next_at_left = ln,
        }
        match ln {
            NIL => self.left_tail[l] = lp,
            n => self.edges[n as usize].prev_at_left = lp,
        }
        self.left_deg[l] -= 1;
        // Unlink from the right endpoint's list.
        match rp {
            NIL => self.right_head[r] = rn,
            p => self.edges[p as usize].next_at_right = rn,
        }
        match rn {
            NIL => self.right_tail[r] = rp,
            n => self.edges[n as usize].prev_at_right = rp,
        }
        self.right_deg[r] -= 1;
    }

    /// Iterates over the ids of all live edges in ascending id order.
    ///
    /// Cost is O(live edges): the walk follows the live list and never
    /// touches tombstoned edges, however many have accumulated.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        let mut cur = self.live_head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let id = EdgeId(cur);
            cur = self.edges[cur as usize].next_live;
            Some(id)
        })
    }

    /// Iterates over `(EdgeId, left, right, weight)` for all live edges in
    /// ascending id order. O(live edges), like [`edge_ids`](Graph::edge_ids).
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, usize, usize, Weight)> + '_ {
        self.edge_ids().map(|e| {
            let d = &self.edges[e.index()];
            (e, d.left as usize, d.right as usize, d.weight)
        })
    }

    /// Live edges adjacent to left node `l`, ascending by id. O(degree).
    pub fn edges_of_left(&self, l: usize) -> impl Iterator<Item = EdgeId> + '_ {
        let mut cur = self.left_head[l];
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let id = EdgeId(cur);
            cur = self.edges[cur as usize].next_at_left;
            Some(id)
        })
    }

    /// Live edges adjacent to right node `r`, ascending by id. O(degree).
    pub fn edges_of_right(&self, r: usize) -> impl Iterator<Item = EdgeId> + '_ {
        let mut cur = self.right_head[r];
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let id = EdgeId(cur);
            cur = self.edges[cur as usize].next_at_right;
            Some(id)
        })
    }

    /// Degree of left node `l` (live edges only). O(1).
    #[inline]
    pub fn degree_left(&self, l: usize) -> usize {
        self.left_deg[l] as usize
    }

    /// Degree of right node `r` (live edges only). O(1).
    #[inline]
    pub fn degree_right(&self, r: usize) -> usize {
        self.right_deg[r] as usize
    }

    /// Sum of the weights of live edges adjacent to left node `l` — the
    /// paper's `w(s)` for a sender.
    pub fn node_weight_left(&self, l: usize) -> Weight {
        self.edges_of_left(l).map(|e| self.weight(e)).sum()
    }

    /// Sum of the weights of live edges adjacent to right node `r` — the
    /// paper's `w(s)` for a receiver.
    pub fn node_weight_right(&self, r: usize) -> Weight {
        self.edges_of_right(r).map(|e| self.weight(e)).sum()
    }

    /// Finds the first (lowest-id) live edge between left node `left` and
    /// right node `right`, if any. O(degree of `left`).
    ///
    /// Parallel edges are allowed, so "first" matters: this is the edge a
    /// dense-matrix view of the graph would attribute the cell to, which is
    /// what in-place delta editing needs.
    pub fn find_edge(&self, left: usize, right: usize) -> Option<EdgeId> {
        self.edges_of_left(left)
            .find(|&e| self.right_of(e) == right)
    }

    /// Sets the weight of the `(left, right)` cell in the dense-matrix view
    /// of the graph: overwrites the first live parallel edge if one exists,
    /// otherwise appends a fresh edge. Returns the id of the edge written.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or `weight == 0` (use
    /// [`remove_edge`](Graph::remove_edge) via [`find_edge`](Graph::find_edge)
    /// to clear a cell).
    pub fn upsert_edge(&mut self, left: usize, right: usize, weight: Weight) -> EdgeId {
        assert!(weight > 0, "edges must have positive weight");
        match self.find_edge(left, right) {
            Some(e) => {
                self.set_weight(e, weight);
                e
            }
            None => self.add_edge(left, right, weight),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(3, 2);
        assert_eq!(g.left_count(), 3);
        assert_eq!(g.right_count(), 2);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = Graph::new(2, 2);
        let e0 = g.add_edge(0, 1, 7);
        let e1 = g.add_edge(1, 0, 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.left_of(e0), 0);
        assert_eq!(g.right_of(e0), 1);
        assert_eq!(g.weight(e0), 7);
        assert_eq!(g.weight(e1), 3);
        assert_eq!(g.degree_left(0), 1);
        assert_eq!(g.node_weight_left(0), 7);
        assert_eq!(g.node_weight_right(0), 3);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = Graph::new(1, 1);
        g.add_edge(0, 0, 2);
        g.add_edge(0, 0, 5);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_weight_left(0), 7);
        assert_eq!(g.degree_left(0), 2);
    }

    #[test]
    fn decrease_weight_peels_and_removes() {
        let mut g = Graph::new(1, 1);
        let e = g.add_edge(0, 0, 5);
        g.decrease_weight(e, 2);
        assert_eq!(g.weight(e), 3);
        assert!(g.is_alive(e));
        g.decrease_weight(e, 3);
        assert!(!g.is_alive(e));
        assert_eq!(g.weight(e), 0);
        assert!(g.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds weight")]
    fn overpeel_panics() {
        let mut g = Graph::new(1, 1);
        let e = g.add_edge(0, 0, 5);
        g.decrease_weight(e, 6);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_weight_edge_rejected() {
        let mut g = Graph::new(1, 1);
        g.add_edge(0, 0, 0);
    }

    #[test]
    fn remove_edge_is_idempotent() {
        let mut g = Graph::new(1, 1);
        let e = g.add_edge(0, 0, 5);
        g.remove_edge(e);
        g.remove_edge(e);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree_left(0), 0);
    }

    #[test]
    fn set_weight_zero_removes() {
        let mut g = Graph::new(1, 1);
        let e = g.add_edge(0, 0, 5);
        g.set_weight(e, 0);
        assert!(!g.is_alive(e));
    }

    #[test]
    fn grow_nodes() {
        let mut g = Graph::new(1, 1);
        let l = g.add_left_node();
        let r = g.add_right_node();
        assert_eq!((l, r), (1, 1));
        g.add_edge(l, r, 4);
        assert_eq!(g.node_weight_left(1), 4);
    }

    #[test]
    fn live_lists_survive_interleaved_removal() {
        // Remove head, middle, and tail edges of the same node's list and
        // check every iterator stays id-sorted and consistent.
        let mut g = Graph::new(2, 3);
        let e0 = g.add_edge(0, 0, 1);
        let e1 = g.add_edge(0, 1, 2);
        let e2 = g.add_edge(0, 2, 3);
        let e3 = g.add_edge(1, 0, 4);
        let e4 = g.add_edge(0, 0, 5);

        g.remove_edge(e1); // middle of left-0's list
        assert_eq!(g.edges_of_left(0).collect::<Vec<_>>(), vec![e0, e2, e4]);
        g.remove_edge(e0); // head
        assert_eq!(g.edges_of_left(0).collect::<Vec<_>>(), vec![e2, e4]);
        g.remove_edge(e4); // tail
        assert_eq!(g.edges_of_left(0).collect::<Vec<_>>(), vec![e2]);
        assert_eq!(g.edge_ids().collect::<Vec<_>>(), vec![e2, e3]);
        assert_eq!(g.edges_of_right(0).collect::<Vec<_>>(), vec![e3]);
        assert_eq!(g.degree_left(0), 1);
        assert_eq!(g.degree_left(1), 1);
        assert_eq!(g.degree_right(0), 1);
        assert_eq!(g.degree_right(1), 0);
        assert_eq!(g.edge_count(), 2);

        // Growth after removals appends at the tails.
        let e5 = g.add_edge(0, 1, 6);
        assert_eq!(g.edges_of_left(0).collect::<Vec<_>>(), vec![e2, e5]);
        assert_eq!(g.edge_ids().collect::<Vec<_>>(), vec![e2, e3, e5]);
    }

    #[test]
    fn removed_edges_keep_endpoints() {
        // Schedules hold EdgeIds of edges that have since been peeled to
        // zero; their endpoints must stay queryable.
        let mut g = Graph::new(2, 2);
        let e = g.add_edge(1, 0, 3);
        g.decrease_weight(e, 3);
        assert!(!g.is_alive(e));
        assert_eq!(g.left_of(e), 1);
        assert_eq!(g.right_of(e), 0);
        assert_eq!(g.weight(e), 0);
    }

    #[test]
    fn find_edge_skips_dead_and_prefers_lowest_id() {
        let mut g = Graph::new(2, 2);
        let e0 = g.add_edge(0, 1, 2);
        let e1 = g.add_edge(0, 1, 5); // parallel
        assert_eq!(g.find_edge(0, 1), Some(e0));
        assert_eq!(g.find_edge(0, 0), None);
        assert_eq!(g.find_edge(1, 1), None);
        g.remove_edge(e0);
        assert_eq!(g.find_edge(0, 1), Some(e1));
        g.remove_edge(e1);
        assert_eq!(g.find_edge(0, 1), None);
    }

    #[test]
    fn upsert_edge_overwrites_or_appends() {
        let mut g = Graph::new(2, 2);
        let e0 = g.upsert_edge(0, 1, 3);
        assert_eq!(g.weight(e0), 3);
        // Existing cell: same id, new weight, no new edge.
        let e_again = g.upsert_edge(0, 1, 7);
        assert_eq!(e_again, e0);
        assert_eq!(g.weight(e0), 7);
        assert_eq!(g.edge_count(), 1);
        // Cleared cell: upsert mints a fresh id.
        g.remove_edge(e0);
        let e1 = g.upsert_edge(0, 1, 4);
        assert_ne!(e1, e0);
        assert_eq!(g.weight(e1), 4);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn upsert_edge_rejects_zero_weight() {
        let mut g = Graph::new(1, 1);
        g.upsert_edge(0, 0, 0);
    }

    #[test]
    fn edge_iteration_skips_dead() {
        let mut g = Graph::new(2, 2);
        let e0 = g.add_edge(0, 0, 1);
        g.add_edge(1, 1, 2);
        g.remove_edge(e0);
        let ids: Vec<EdgeId> = g.edge_ids().collect();
        assert_eq!(ids.len(), 1);
        assert_eq!(g.edges_of_left(0).count(), 0);
    }
}
