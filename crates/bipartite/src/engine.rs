//! Incremental peeling engine: matching state and scratch buffers reused
//! across the peels of one WRGP run.
//!
//! Every from-scratch matching routine in this crate builds its CSR
//! adjacency and match/search scratch per call; the WRGP loop of `kpbs`
//! calls one of them once per peel, and a peel changes the graph only
//! slightly (a uniform quantum subtracted from one matching, a few edges
//! dying). [`MatchingEngine`] exploits that:
//!
//! * **One adjacency per run** — the flat [`CsrAdj`] is built once in
//!   [`begin`](MatchingEngine::begin) (exactly one `adj_rebuilds` count)
//!   and repaired in place as peels kill edges: an order-preserving
//!   in-row removal per dead edge instead of an O(n + m) rebuild per peel.
//!   The probe adjacency of the threshold search shares the same row
//!   layout and is kept in the same ascending-id row order.
//! * **Epoch-stamped search scratch** — visited marks and BFS layers live
//!   in one [`SearchState`]; invalidating them between searches is an O(1)
//!   epoch bump, so a peel does zero allocation and zero full-array clears
//!   (`epoch_resets` stays at zero short of a 32-bit wrap).
//! * **Matching reuse** — the previous peel's matching, minus its dead
//!   edges, seeds the next peel's augmentation
//!   ([`MatchingEngine::any_perfect_matching`]), so each peel only repairs
//!   the few pairs it lost instead of rebuilding all of them.
//! * **Warm threshold search over one alternating forest** — for
//!   bottleneck (max–min) matchings the previous peel's achieved
//!   bottleneck is an upper bound on the next one (see below), so the
//!   descending threshold sweep starts there, from the previous matching
//!   minus what the peel destroyed, and decides every inserted edge with
//!   an O(1) test against a forest that persists for the whole search
//!   ([`MatchingEngine::max_min_matching`], see "Threshold search").
//! * **Order maintenance** — the heaviest-first edge order is kept
//!   incrementally, in the cheapest shape the mode in use admits. The
//!   greedy-seeded mode needs *all* live edges sorted, so it keeps one
//!   sorted array and splices the `k` peeled entries (k = one matching,
//!   `<=` the side size) out and back in at their post-quantum positions:
//!   O(k log m) binary searches plus contiguous segment moves. The
//!   max–min mode only ever *consumes* edges heaviest-first down to the
//!   achieved bottleneck, so it keeps just the edges of weight `>=` the
//!   last bottleneck as a small sorted prefix and everything below in a
//!   max-heap pool that pops in the same (weight desc, id asc) order.
//!   Peeled edges always sit in the prefix (their weight is at least the
//!   achieved bottleneck), so a peel repairs the short prefix in place
//!   and demotes what fell below the bound with O(log m) heap pushes —
//!   where a single sorted array would memmove nearly its whole bulk
//!   every peel, because the heavy peeled edges re-insert far below
//!   their old slots.
//!
//! # Seeded-augmentation invariant
//!
//! After [`MatchingEngine::observe_peel`] the engine's carried matching is
//! exactly the previous returned matching restricted to edges still alive —
//! a valid matching of the residual graph. Augmenting it to maximality
//! (Berge) yields a maximum matching, so
//! [`MatchingEngine::any_perfect_matching`] is equivalent, peel for peel,
//! to `hopcroft_karp::maximum_matching_seeded(g, survivors)` computed from
//! scratch — the differential tests in `kpbs` assert exactly that. The
//! repaired adjacency keeps the ascending-edge-id row order a rebuild
//! would produce, so traversal orders (and thus the returned matchings and
//! every work counter) are byte-identical to the rebuild-per-peel engine.
//!
//! # Warm bound for the bottleneck search
//!
//! Let `t*` be the max–min threshold of the graph before a peel and let the
//! peel subtract quantum `q > 0` from each edge of one maximum-cardinality
//! matching. As long as the maximum cardinality is unchanged (in WRGP it is
//! always the side size), every maximum-cardinality matching `M` of the
//! residual graph is also one of the pre-peel graph, and its pre-peel
//! minimum is no smaller, so `min_new(M) <= min_old(M) <= t*`: the new
//! threshold never exceeds the old one. The sweep therefore starts with
//! all edges of weight `>= t*_old` in place and only then descends. When
//! the cardinality did change (possible on irregular inputs), the same
//! sweep starts from the empty graph instead.
//!
//! # Threshold search
//!
//! The search's only observable result is the number `t*` — the largest
//! weight whose heavier-or-equal edges admit a matching of the target
//! size — so the probe matching it grows is private scratch: it may be
//! seeded with any valid matching and augmented along any paths in any
//! order, and only its *size* after each inserted edge matters. `Forest`
//! exploits that with one Hungarian-style alternating forest per search
//! instead of a maximality certificate rebuilt after every augmentation;
//! its three invariants (parked trees stay dead, dead means the root is
//! still free, blocked edges wake their owner) are stated on the type.
//! Warm level, descent, the cold first peel of a run (every left a parked
//! root over an empty graph) and irregular graphs (`target < side`, some
//! roots parked for good) are the same code path.
//!
//! The matching *returned* by [`MatchingEngine::max_min_matching`] does
//! not come from that search. It is the canonical solve at `t*`, the same
//! deterministic function of `(g, t*)` the from-scratch
//! [`crate::bottleneck::max_min_matching`] ends with — heaviest-first
//! greedy seed over the prefix, augmented over ascending-id rows, which
//! is why the descent inserts with [`CsrAdj::insert_by_id`] — so the two
//! agree edge-for-edge, not just on the achieved bottleneck, however the
//! probe matching was grown.

use crate::csr::{CsrAdj, SearchState, NIL};
use crate::graph::{EdgeId, Graph, Weight};
use crate::hopcroft_karp::{gather, hk_augment_to_maximum, kuhn_to_maximum};
use crate::matching::Matching;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use telemetry::counters::{self, Counter};

/// Which live-edge order representation the engine currently maintains.
/// Switching modes mid-run rebuilds the needed one lazily from the graph
/// (`ensure_*`); a steady single-mode run pays the build at most once.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum OrderRepr {
    /// No order maintained: a fresh run, or only
    /// [`MatchingEngine::any_perfect_matching`] used — it needs none.
    #[default]
    Stale,
    /// `order` holds every live edge, sorted (greedy-seeded mode).
    Full,
    /// `prefix`/`pool` split at `last_bottleneck` (max–min mode).
    Split,
}

/// One edge of the max–min mode's sorted prefix. The endpoints are cached
/// so the hot loops that walk the prefix every peel — the canonical greedy
/// seed, the threshold descent's insertions and the peel repair — never
/// chase the edge id back into the graph's edge table (a random access per
/// entry); endpoints never change for a live edge, only `w` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PrefixEntry {
    id: EdgeId,
    w: Weight,
    l: u32,
    r: u32,
}

/// Reusable matching engine for the WRGP peeling loop. See the module
/// documentation for the invariants it maintains between peels.
///
/// Protocol: call [`begin`](MatchingEngine::begin) once per peeling run,
/// then alternate one matching method with one
/// [`observe_peel`](MatchingEngine::observe_peel) after the caller has
/// subtracted the quantum from the graph.
#[derive(Debug, Default)]
pub struct MatchingEngine {
    nl: usize,
    nr: usize,
    /// Carried matching (survivors of the last returned matching), or the
    /// maximum-cardinality witness in max–min mode.
    match_left: Vec<u32>,
    match_right: Vec<u32>,
    via_left: Vec<EdgeId>,
    /// Epoch-stamped Kuhn/Hopcroft–Karp scratch (visited, dist, queue).
    search: SearchState,
    /// Full-graph CSR adjacency: built once per run, repaired as edges die.
    adj: CsrAdj,
    /// Threshold-probe matching and adjacency (max–min mode). The probe
    /// adjacency holds the edges of weight `>= last_bottleneck` *across*
    /// peels — `observe_peel` removes the few peeled edges that fell below
    /// the bound, and the threshold descent inserts.
    probe_left: Vec<u32>,
    probe_right: Vec<u32>,
    probe_via: Vec<EdgeId>,
    probe_adj: CsrAdj,
    /// Alternating forest of one threshold search over the probe matching.
    forest: Forest,
    /// Live-edge order, in the representation `repr` names. `order` is the
    /// greedy-seeded mode's full array: every live edge sorted by
    /// (weight desc, id asc). `prefix` + `pool` are the max–min mode's
    /// split: `prefix` holds exactly the edges of weight
    /// `>= last_bottleneck` in that same sorted order — the threshold
    /// sweep's insertion order and the canonical greedy-seed order — and
    /// `pool` holds every other live edge in a max-heap popping in that
    /// order too, so a descent below the bound consumes it seamlessly.
    order: Vec<(EdgeId, Weight)>,
    prefix: Vec<PrefixEntry>,
    pool: BinaryHeap<(Weight, Reverse<EdgeId>)>,
    repr: OrderRepr,
    changed: Vec<(EdgeId, Weight)>,
    split_changed: Vec<PrefixEntry>,
    peel_pos: Vec<u32>,
    /// Peel stamps per edge id, so the split repair can tell "was this
    /// prefix entry just peeled?" in O(1) during its single compaction
    /// pass. Epoch-stamped like the search scratch: one bump per repair,
    /// never a clear.
    edge_mark: Vec<u32>,
    mark_epoch: u32,
    /// True when the carried witness matching may have lost maximality —
    /// set when a peel kills one of its pairs, cleared by the re-augment.
    /// Removing edges never *raises* the maximum cardinality, so an intact
    /// maximum matching stays maximum and the re-augment can be skipped.
    witness_dirty: bool,
    /// Warm-start state of the bottleneck search.
    last_bottleneck: Option<Weight>,
    last_target: usize,
}

impl MatchingEngine {
    /// Creates an empty engine; [`begin`](MatchingEngine::begin) sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine already prepared for `g`.
    pub fn for_graph(g: &Graph) -> Self {
        let mut e = Self::new();
        e.begin(g);
        e
    }

    /// Prepares the engine for a peeling run over `g`: sizes every buffer
    /// (keeping capacity from earlier runs), clears the carried matching
    /// and builds the CSR adjacency (the run's single full build). The
    /// live-edge order representations are built lazily by the first
    /// matching call that needs one. O(n + m) once per run.
    pub fn begin(&mut self, g: &Graph) {
        self.nl = g.left_count();
        self.nr = g.right_count();
        self.match_left.clear();
        self.match_left.resize(self.nl, NIL);
        self.match_right.clear();
        self.match_right.resize(self.nr, NIL);
        self.via_left.clear();
        self.via_left.resize(self.nl, EdgeId(0));
        self.probe_left.clear();
        self.probe_left.resize(self.nl, NIL);
        self.probe_right.clear();
        self.probe_right.resize(self.nr, NIL);
        self.probe_via.clear();
        self.probe_via.resize(self.nl, EdgeId(0));
        self.search.prepare(self.nl);
        self.adj.build(g);
        self.probe_adj.clone_layout(&self.adj);
        self.forest.resize(self.nl, self.nr);
        self.order.clear();
        self.prefix.clear();
        self.pool.clear();
        self.repr = OrderRepr::Stale;
        self.edge_mark.clear();
        self.edge_mark.resize(g.edge_id_bound(), 0);
        self.mark_epoch = 0;
        self.witness_dirty = true;
        self.last_bottleneck = None;
        self.last_target = usize::MAX;
    }

    /// Makes `order` hold every live edge sorted by (weight desc, id asc),
    /// rebuilding from the graph only when the representation changed; in
    /// steady greedy-seeded use, `observe_peel` keeps it sorted instead.
    fn ensure_full_order(&mut self, g: &Graph) {
        if self.repr == OrderRepr::Full {
            return;
        }
        self.order.clear();
        self.order.extend(g.edges().map(|(id, _, _, w)| (id, w)));
        self.order
            .sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.prefix.clear();
        self.pool.clear();
        self.repr = OrderRepr::Full;
        // The probe-prefix invariant is tied to the split representation.
        self.last_bottleneck = None;
        self.last_target = usize::MAX;
    }

    /// Makes `prefix`/`pool` hold the live edges split at the achieved
    /// bottleneck. On a representation change everything lands in the pool
    /// (one O(m) heapify — cheaper than a sort) and the bound is forgotten,
    /// forcing the next threshold search to run cold; in steady max–min
    /// use, `observe_peel` maintains the split and this is a no-op.
    fn ensure_split_order(&mut self, g: &Graph) {
        if self.repr == OrderRepr::Split {
            return;
        }
        self.prefix.clear();
        let mut heap = std::mem::take(&mut self.pool).into_vec();
        heap.clear();
        heap.extend(g.edges().map(|(id, _, _, w)| (w, Reverse(id))));
        self.pool = BinaryHeap::from(heap);
        self.order.clear();
        self.repr = OrderRepr::Split;
        self.last_bottleneck = None;
        self.last_target = usize::MAX;
    }

    /// Maximum-cardinality matching grown from the survivors of the last
    /// returned matching (empty on the first call). Peel for peel this
    /// equals `hopcroft_karp::maximum_matching_seeded(g, survivors)`.
    pub fn any_perfect_matching(&mut self, g: &Graph) -> Matching {
        self.debug_check_adj(g);
        // The split order's prefix invariant assumes peels come from max–min
        // matchings (whose edges all sit in the prefix); a peel of this
        // mode's matching could damage pool entries, so drop the split — a
        // later max–min call rebuilds it cold.
        if self.repr == OrderRepr::Split {
            self.repr = OrderRepr::Stale;
            self.last_bottleneck = None;
            self.last_target = usize::MAX;
        }
        kuhn_to_maximum(
            &self.adj,
            &mut self.match_left,
            &mut self.match_right,
            &mut self.via_left,
            &mut self.search,
        );
        gather(&self.match_left, &self.via_left)
    }

    /// Maximum-cardinality matching grown from a heaviest-first greedy seed,
    /// identical to `kpbs::wrgp::GreedySeeded`'s from-scratch computation but
    /// with the seed derived from the maintained order (no per-peel sort) and
    /// all scratch recycled.
    pub fn greedy_seeded_matching(&mut self, g: &Graph) -> Matching {
        self.debug_check_adj(g);
        self.ensure_full_order(g);
        let MatchingEngine {
            order,
            match_left,
            match_right,
            via_left,
            ..
        } = self;
        match_left.fill(NIL);
        match_right.fill(NIL);
        for &(e, _) in order.iter() {
            let (l, r) = (g.left_of(e), g.right_of(e));
            if match_left[l] == NIL && match_right[r] == NIL {
                match_left[l] = r as u32;
                match_right[r] = l as u32;
                via_left[l] = e;
            }
        }
        kuhn_to_maximum(
            &self.adj,
            &mut self.match_left,
            &mut self.match_right,
            &mut self.via_left,
            &mut self.search,
        );
        gather(&self.match_left, &self.via_left)
    }

    /// Maximum-cardinality matching whose minimum edge weight is maximal,
    /// equal edge-for-edge to [`crate::bottleneck::max_min_matching`] but
    /// with the cardinality witness maintained incrementally and the
    /// threshold found by a warm descending sweep instead of a cold binary
    /// search.
    pub fn max_min_matching(&mut self, g: &Graph) -> Matching {
        self.debug_check_adj(g);
        let target = self.witness_target();
        if target == 0 {
            self.last_bottleneck = None;
            self.last_target = 0;
            return Matching::new();
        }
        let warm = self.last_target == target && self.repr == OrderRepr::Split;
        self.ensure_split_order(g);
        let t_star = self.bottleneck_threshold(g, target, warm);
        self.last_bottleneck = Some(t_star);
        self.last_target = target;
        self.canonical_matching(t_star)
    }

    /// Tells the engine one peel happened: the caller subtracted `quantum`
    /// from every edge of `peeled` (removing the ones that reached zero).
    /// Drops dead pairs from the carried matching, removes dead edges from
    /// the CSR adjacency (order-preserving, so no rebuild is ever needed)
    /// and repairs whichever live-edge order is maintained: the greedy
    /// mode's full array by an O(k log m) splice, the max–min mode's short
    /// sorted prefix in place — demoting entries that fell below the weight
    /// bound to the heap pool — never a per-element pass over the bulk of
    /// the live edges.
    pub fn observe_peel(&mut self, g: &Graph, peeled: &Matching, quantum: Weight) {
        counters::incr(Counter::MergePasses);
        // Dead peeled edges leave the adjacency, and the carried matching if
        // a pair rode on them; survivors keep their slot. Only a peeled edge
        // can have died, so nothing else of the carried matching is checked.
        for &e in peeled.edges() {
            if g.is_alive(e) {
                continue;
            }
            let l = g.left_of(e);
            self.adj.remove(l, e);
            let r = self.match_left[l];
            if r != NIL && self.via_left[l] == e {
                self.match_left[l] = NIL;
                self.match_right[r as usize] = NIL;
                self.witness_dirty = true;
            }
        }
        if !peeled.is_empty() {
            match self.repr {
                OrderRepr::Stale => {}
                OrderRepr::Full => self.repair_full_order(g, peeled, quantum),
                OrderRepr::Split => self.repair_split_order(g, peeled, quantum),
            }
        }
    }

    /// Splices the peeled entries of the full sorted order out and back in
    /// at their post-quantum positions (dead edges just leave).
    fn repair_full_order(&mut self, g: &Graph, peeled: &Matching, quantum: Weight) {
        let MatchingEngine {
            order,
            changed,
            peel_pos,
            ..
        } = self;
        locate_peeled(order, peeled, g, quantum, peel_pos);
        // The survivors, in slot order: they lost a uniform quantum, so
        // they are already sorted by (new weight desc, id asc).
        changed.clear();
        for &p in peel_pos.iter() {
            let (e, w) = order[p as usize];
            let nw = w - quantum;
            debug_assert_eq!(nw > 0, g.is_alive(e));
            if nw > 0 {
                changed.push((e, nw));
            }
        }
        splice_sorted(order, peel_pos, changed);
    }

    /// Repairs the max–min split in one pass over the prefix. The probe
    /// structures hold the edges of weight `>=` the last achieved
    /// bottleneck across peels; only the peeled edges lost weight, and
    /// every one of them sits in the prefix (it weighed at least the
    /// bottleneck), so a single compaction pass re-establishes all the
    /// warm-start invariants at once: entries still at or above the bound
    /// collect into `split_changed` (a uniform quantum preserves their
    /// (weight desc, id asc) order, so no re-sort), the rest leave the
    /// probe adjacency and the carried probe matching and demote to the
    /// pool, dead edges just leave. A backward in-place merge then folds the
    /// changed entries into the compacted survivors; the pool's bulk is
    /// never touched.
    fn repair_split_order(&mut self, g: &Graph, peeled: &Matching, quantum: Weight) {
        let bound = self
            .last_bottleneck
            .expect("split order implies an achieved bottleneck");
        let MatchingEngine {
            prefix,
            pool,
            split_changed,
            probe_adj,
            probe_left,
            probe_right,
            probe_via,
            edge_mark,
            mark_epoch,
            ..
        } = self;
        *mark_epoch = mark_epoch.wrapping_add(1);
        if *mark_epoch == 0 {
            edge_mark.fill(0);
            *mark_epoch = 1;
        }
        let epoch = *mark_epoch;
        for &e in peeled.edges() {
            edge_mark[e.index()] = epoch;
        }
        split_changed.clear();
        let mut write = 0usize;
        for i in 0..prefix.len() {
            let ent = prefix[i];
            if edge_mark[ent.id.index()] != epoch {
                prefix[write] = ent;
                write += 1;
                continue;
            }
            let nw = ent.w - quantum;
            debug_assert_eq!(nw, g.weight(ent.id), "non-uniform quantum?");
            if nw >= bound {
                split_changed.push(PrefixEntry { w: nw, ..ent });
            } else {
                // Fell below the bound (or died): leave the probe
                // structures, and the carried probe matching if the pair
                // rode on this edge.
                probe_adj.remove(ent.l as usize, ent.id);
                let l = ent.l as usize;
                if probe_left[l] != NIL && probe_via[l] == ent.id {
                    probe_left[l] = NIL;
                    probe_right[ent.r as usize] = NIL;
                }
                if nw > 0 {
                    pool.push((nw, Reverse(ent.id)));
                }
            }
        }
        debug_assert_eq!(
            prefix.len() - write,
            peeled.len(),
            "every peeled edge sits in the prefix"
        );
        prefix.truncate(write);
        // Backward in-place merge of the changed entries (both runs are
        // sorted by (weight desc, id asc); ids make every key unique).
        let k = split_changed.len();
        if k > 0 {
            let mut i = prefix.len();
            prefix.resize(
                i + k,
                PrefixEntry {
                    id: EdgeId(0),
                    w: 0,
                    l: 0,
                    r: 0,
                },
            );
            let mut j = k;
            let mut w = prefix.len();
            while j > 0 {
                let c = split_changed[j - 1];
                if i > 0
                    && (prefix[i - 1].w < c.w
                        || (prefix[i - 1].w == c.w && prefix[i - 1].id > c.id))
                {
                    prefix[w - 1] = prefix[i - 1];
                    i -= 1;
                } else {
                    prefix[w - 1] = c;
                    j -= 1;
                }
                w -= 1;
            }
        }
    }

    /// Bottleneck achieved by the last [`max_min_matching`] call, if any.
    ///
    /// [`max_min_matching`]: MatchingEngine::max_min_matching
    pub fn last_bottleneck(&self) -> Option<Weight> {
        self.last_bottleneck
    }

    /// The maintained adjacency must mirror the graph's live edges exactly
    /// (the caller peeled and then told us via `observe_peel`).
    fn debug_check_adj(&self, g: &Graph) {
        debug_assert_eq!(g.left_count(), self.nl);
        debug_assert_eq!(
            self.adj.live_entries(),
            g.edge_count(),
            "CSR adjacency out of sync with the graph: call observe_peel \
             after every peel"
        );
    }

    /// Re-augments the carried witness to a maximum matching of `g` and
    /// returns its cardinality. Dropping dead edges from a maximum matching
    /// and augmenting until no path remains is again maximum (Berge), so
    /// this equals `maximum_matching(g).len()` at a fraction of the work —
    /// and when the peel killed none of the witness's own pairs the
    /// matching never lost maximality (removing edges cannot raise the
    /// maximum cardinality), so even that augmentation is skipped.
    fn witness_target(&mut self) -> usize {
        let MatchingEngine {
            adj,
            match_left,
            match_right,
            via_left,
            search,
            witness_dirty,
            ..
        } = self;
        if *witness_dirty {
            hk_augment_to_maximum(adj, match_left, match_right, via_left, search);
            *witness_dirty = false;
        }
        match_left.iter().filter(|&&x| x != NIL).count()
    }

    /// Largest distinct weight `t` such that edges of weight `>= t` admit a
    /// matching of size `target`; counts one `threshold_probes`. When `warm`
    /// holds, the probe adjacency already contains the edges of weight
    /// `>= last_bottleneck` — a sound upper bound, see the module docs —
    /// and the probe matching is the previous canonical matching minus what
    /// the peel destroyed, both maintained by `observe_peel`; otherwise the
    /// search starts from the empty graph. Either way one [`Forest`] serves
    /// the whole call: every free left roots a tree, a tree that finds a
    /// free right augments, and once all trees are parked the probe
    /// matching is maximum. The descent then inserts edges in decreasing
    /// weight order (the paper's Figure 6 order) — first the rest of the
    /// prefix, then the pool's pops, appended to the prefix so that it
    /// stays exactly the inserted edge set — and an inserted edge `(l, r)`
    /// matters only if `l` sits in a parked tree, an O(1) test.
    ///
    /// Only the *size* of the probe matching is observable (the threshold
    /// it implies), so it may be seeded and grown in any order.
    ///
    /// Postcondition: `probe_adj` and `prefix` hold exactly the edges of
    /// weight `>= t` for the returned `t` — the invariant `observe_peel`
    /// carries into the next peel.
    fn bottleneck_threshold(&mut self, g: &Graph, target: usize, warm: bool) -> Weight {
        let MatchingEngine {
            prefix,
            pool,
            probe_adj,
            probe_left,
            probe_right,
            probe_via,
            forest,
            ..
        } = self;
        counters::incr(Counter::ThresholdProbes);
        if !warm {
            probe_adj.clear_rows();
            probe_left.fill(NIL);
            probe_right.fill(NIL);
        }
        // `j` = how many prefix entries the probe adjacency holds.
        let mut j = if warm { prefix.len() } else { 0 };
        debug_assert_eq!(
            probe_adj.live_entries(),
            j,
            "probe adjacency out of sync with the weight bound"
        );
        let mut probe = Probe {
            adj: probe_adj,
            left: probe_left,
            right: probe_right,
            via: probe_via,
        };
        forest.open();
        let mut matched = probe.left.iter().filter(|&&r| r != NIL).count();
        for root in 0..probe.left.len() {
            if matched == target {
                break;
            }
            if probe.left[root] == NIL {
                matched += forest.start(root as u32, target - matched, &mut probe);
            }
        }
        if matched == target {
            // Only a warm search gets here: a cold one starts unmatched
            // over an empty graph, where no tree can augment.
            return prefix.last().expect("matched pairs ride on prefix edges").w;
        }
        debug_assert!(
            j < prefix.len() || !pool.is_empty(),
            "an infeasible prefix is never the whole live graph"
        );
        loop {
            let ent = if j < prefix.len() {
                prefix[j]
            } else {
                let (w, Reverse(id)) = pool
                    .pop()
                    .expect("inserting every live edge reaches the maximum matching size");
                let (l, r) = (g.left_of(id) as u32, g.right_of(id) as u32);
                prefix.push(PrefixEntry { id, w, l, r });
                prefix[j]
            };
            probe.adj.insert_by_id(ent.l as usize, ent.r, ent.id);
            j += 1;
            if let Some(owner) = forest.owner_of(ent.l, probe.left) {
                let edge = TreeEdge {
                    owner,
                    left: ent.l,
                    right: ent.r,
                    id: ent.id,
                };
                matched += forest.resume(edge, target - matched, &mut probe);
            }
            if matched < target {
                continue;
            }
            // Complete the current weight group so the probe adjacency (and
            // the prefix mirroring it) holds exactly the edges of weight
            // >= t for the next peel — first from the prefix, then from the
            // pool. The two only share the group when the descent has
            // already crossed into the pool, in which case the prefix is
            // exhausted.
            let w = ent.w;
            while j < prefix.len() && prefix[j].w == w {
                let ent = prefix[j];
                probe.adj.insert_by_id(ent.l as usize, ent.r, ent.id);
                j += 1;
            }
            if j < prefix.len() {
                // A cold sweep over a still-valid split (the cardinality
                // target changed) stopped above the old bound: the prefix
                // tail is below the new threshold — demote it.
                for ent in prefix[j..].iter() {
                    pool.push((ent.w, Reverse(ent.id)));
                }
                prefix.truncate(j);
            } else {
                while pool.peek().is_some_and(|&(pw, _)| pw == w) {
                    let (_, Reverse(id)) = pool.pop().expect("peeked");
                    let (l, r) = (g.left_of(id) as u32, g.right_of(id) as u32);
                    prefix.push(PrefixEntry { id, w, l, r });
                    probe.adj.insert_by_id(l as usize, r, id);
                }
            }
            return w;
        }
    }

    /// The canonical threshold matching, byte-identical in traversal order
    /// to [`crate::bottleneck::canonical_matching_at`]: a heaviest-first
    /// greedy seed over the edges of weight `>= t` — read straight off the
    /// maintained prefix, no sort — augmented to maximum cardinality over
    /// ascending-id rows. The cold path materialises a filtered CSR for
    /// that; the engine already has one: `probe_adj` holds exactly the
    /// edges of weight `>= t` (the threshold postcondition, re-checked
    /// below) and its rows are kept in ascending-id order by
    /// [`CsrAdj::insert_by_id`]/[`CsrAdj::remove`], so they are
    /// indistinguishable from a fresh `build_where` and the matchings agree
    /// edge-for-edge, `dfs_edge_visits` included.
    ///
    /// The probe matching is overwritten with the result — exactly the
    /// carried seed the next peel's warm batch probe wants, since every
    /// edge of the result passes the next prefix filter until the peel
    /// damages it.
    fn canonical_matching(&mut self, t: Weight) -> Matching {
        let MatchingEngine {
            prefix,
            probe_adj,
            probe_left,
            probe_right,
            probe_via,
            search,
            ..
        } = self;
        probe_left.fill(NIL);
        probe_right.fill(NIL);
        // The prefix holds exactly the edges of weight >= t, sorted by
        // (weight desc, id asc) — the same key the cold path sorts the
        // filtered edges by — so walking it *is* the greedy sequence.
        for ent in prefix.iter() {
            debug_assert!(ent.w >= t, "prefix entry below the achieved threshold");
            let (l, r) = (ent.l as usize, ent.r as usize);
            if probe_left[l] == NIL && probe_right[r] == NIL {
                probe_left[l] = ent.r;
                probe_right[r] = ent.l;
                probe_via[l] = ent.id;
            }
        }
        debug_assert_eq!(
            probe_adj.live_entries(),
            prefix.len(),
            "threshold postcondition: probe adjacency holds exactly the \
             edges of weight >= t"
        );
        kuhn_to_maximum(probe_adj, probe_left, probe_right, probe_via, search);
        gather(probe_left, probe_via)
    }
}

/// Locates each peeled edge's slot in the (weight desc, id asc)-sorted
/// `list` by binary search on its pre-peel key (current weight plus the
/// quantum; a dead edge weighs 0, so its pre-peel weight was exactly the
/// quantum). Leaves the slot indices, ascending, in `pos`.
fn locate_peeled(
    list: &[(EdgeId, Weight)],
    peeled: &Matching,
    g: &Graph,
    quantum: Weight,
    pos: &mut Vec<u32>,
) {
    pos.clear();
    for &e in peeled.edges() {
        let w_old = g.weight(e) + quantum;
        let p = list.partition_point(|&(id, w)| w > w_old || (w == w_old && id < e));
        debug_assert!(
            p < list.len() && list[p] == (e, w_old),
            "peeled entry missing at its pre-peel key (non-uniform quantum?)"
        );
        pos.push(p as u32);
    }
    pos.sort_unstable();
}

/// Splices the entries at (ascending, non-empty) positions `pos` out of the
/// (weight desc, id asc)-sorted `list` and re-inserts `changed` — already
/// sorted by the same key, with keys no larger than the removed ones — at
/// their new positions: one contiguous segment move per gap and per
/// re-insertion, O(k log |list|) binary searches, never a per-element pass.
fn splice_sorted(list: &mut Vec<(EdgeId, Weight)>, pos: &[u32], changed: &[(EdgeId, Weight)]) {
    // Close the removed slots with one contiguous move per gap segment.
    let mut dst = pos[0] as usize;
    for (j, &p) in pos.iter().enumerate() {
        let p = p as usize;
        let next = pos.get(j + 1).map_or(list.len(), |&q| q as usize);
        list.copy_within(p + 1..next, dst);
        dst += next - p - 1;
    }
    list.truncate(dst);
    // Re-insert back to front: each entry opens its slot by shifting the
    // segment between its insertion point and the previous one in a single
    // move.
    list.resize(dst + changed.len(), (EdgeId(0), 0));
    let mut src_end = dst;
    let mut write_end = list.len();
    for j in (0..changed.len()).rev() {
        let c = changed[j];
        let ins = list[..src_end].partition_point(|&(id, w)| w > c.1 || (w == c.1 && id < c.0));
        let seg = src_end - ins;
        list.copy_within(ins..src_end, write_end - seg);
        write_end -= seg + 1;
        list[write_end] = c;
        src_end = ins;
    }
    debug_assert_eq!(src_end, write_end);
}

/// The probe matching and the adjacency it lives in, as one threshold
/// search sees them.
struct Probe<'a> {
    adj: &'a mut CsrAdj,
    left: &'a mut [u32],
    right: &'a mut [u32],
    via: &'a mut [EdgeId],
}

/// A right node's slot in the [`Forest`]: the tree that reached it and the
/// edge it was reached by (its parent pointer).
#[derive(Debug, Clone, Copy)]
struct ForestRight {
    stamp: u32,
    root: u32,
    from: u32,
    via: EdgeId,
}

impl ForestRight {
    /// Stamp 0 is never a current epoch.
    const UNSEEN: ForestRight = ForestRight {
        stamp: 0,
        root: 0,
        from: 0,
        via: EdgeId(0),
    };
}

/// Edge `id` from `left`, a vertex of the tree rooted at `owner`, to
/// `right`: what a tree is resumed along.
#[derive(Debug, Clone, Copy)]
struct TreeEdge {
    owner: u32,
    left: u32,
    right: u32,
    id: EdgeId,
}

/// Hungarian-style alternating forest over the probe matching, alive for
/// one threshold search: one tree per free left, growing left → any edge →
/// right → matched edge → left, with a parent pointer per right so that a
/// tree reaching a free right flips its augmenting path straight from the
/// tree. Trees grow depth-first: a tree that augments is released whole,
/// so only the rows scanned before its free right turned up are paid for,
/// and descending at once finds one sooner than scanning level by level
/// (fewer row entries on every workload measured, 15 % fewer on dense
/// graphs). Three invariants carry the search:
///
/// * **Parked trees stay dead.** A tree that runs dry is parked, not
///   discarded: every edge out of its lefts leads to a right of a live
///   tree and all of those are matched inside their tree, so no augmenting
///   path enters it — now or after any augmentation elsewhere. Other
///   trees stop at its vertices instead of re-exploring them, and a new
///   edge matters only if it leaves a left of some parked tree, which is
///   then resumed along it.
/// * **Dead means the root is still free.** A right belongs to a live tree
///   iff `stamp == epoch && probe_left[root] == NIL`; a matched left
///   belongs to its partner's tree and a free left roots its own, so lefts
///   need no slots. Augmenting matches the root, which releases every
///   vertex of its tree in O(1) — correct, because the flip re-matched
///   part of the tree and the rest may now lie on someone else's path.
/// * **Blocked edges wake their owner.** A tree edge that stops at another
///   live tree is threaded onto that tree's `blocked` list; a release
///   resumes exactly those edges, so the trees that never touched the
///   released one stay parked untouched.
///
/// Left nodes matched when the search opens stay matched throughout (an
/// augmentation only re-routes them), so a released root never roots
/// again and the per-root list heads need no stamps.
#[derive(Debug, Default)]
struct Forest {
    epoch: u32,
    right: Vec<ForestRight>,
    /// Per root: head of its chain in `blocked`, the edges of other trees
    /// waiting on it (`NIL`-terminated through the paired `u32`).
    blocked_head: Vec<u32>,
    blocked: Vec<(TreeEdge, u32)>,
    /// Blocked edges of released trees, not yet resumed.
    wake: Vec<TreeEdge>,
    /// Depth-first frontier of the growing tree: `(left, row cursor)`.
    stack: Vec<(u32, u32)>,
}

impl Forest {
    /// Sizes the slots for a graph, keeping stamps: slots of earlier runs
    /// carry epochs already passed and new ones 0, never current.
    fn resize(&mut self, nl: usize, nr: usize) {
        self.right.resize(nr, ForestRight::UNSEEN);
        self.blocked_head.resize(nl, NIL);
    }

    /// Opens the forest of a new search: every free left a parked root with
    /// nothing explored. The epoch bump forgets the previous search in
    /// O(1); on the 32-bit wrap the stamps are physically cleared, counted
    /// as `epoch_resets`.
    fn open(&mut self) {
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                counters::incr(Counter::EpochResets);
                self.right.iter_mut().for_each(|n| n.stamp = 0);
                1
            }
        };
        self.blocked.clear();
        self.wake.clear();
        self.blocked_head.fill(NIL);
    }

    /// Forces the epoch counter (test hook for exercising wrap-around).
    #[cfg(test)]
    fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Root of the live tree `r` belongs to, if any.
    #[inline]
    fn tree_of(&self, r: u32, probe_left: &[u32]) -> Option<u32> {
        let n = &self.right[r as usize];
        (n.stamp == self.epoch && probe_left[n.root as usize] == NIL).then_some(n.root)
    }

    /// Root of the live tree left `l` belongs to, if any: its own when it
    /// is free, else its partner's.
    #[inline]
    fn owner_of(&self, l: u32, probe_left: &[u32]) -> Option<u32> {
        match probe_left[l as usize] {
            NIL => Some(l),
            r => self.tree_of(r, probe_left),
        }
    }

    /// Grows the tree of free left `root` from nothing, then settles like
    /// [`resume`](Forest::resume).
    fn start(&mut self, root: u32, need: usize, probe: &mut Probe) -> usize {
        let gained = self.grow(root, None, probe) as usize;
        self.settle(gained, need, probe)
    }

    /// Resumes the live tree `edge.owner` along `edge`, then every tree a
    /// release wakes, until all are parked again or `need` augmentations
    /// happened; returns how many did.
    fn resume(&mut self, edge: TreeEdge, need: usize, probe: &mut Probe) -> usize {
        self.wake.push(edge);
        self.settle(0, need, probe)
    }

    fn settle(&mut self, mut gained: usize, need: usize, probe: &mut Probe) -> usize {
        while gained < need {
            let Some(edge) = self.wake.pop() else { break };
            // An owner matched in the meantime released its tree.
            if probe.left[edge.owner as usize] == NIL {
                gained += self.grow(edge.owner, Some(edge), probe) as usize;
            }
        }
        gained
    }

    /// Depth-first growth of the live tree `root` — along `first` when it
    /// is resumed, from the root itself when it starts — until it runs dry
    /// (parked, `false`) or reaches a free right: then the path back to the
    /// root is flipped, which releases the tree, and the edges blocked on
    /// it move to `wake` (`true`). Counts one `kuhn_attempts`, and one
    /// `dfs_edge_visits` per row entry scanned.
    fn grow(&mut self, root: u32, first: Option<TreeEdge>, probe: &mut Probe) -> bool {
        counters::incr(Counter::KuhnAttempts);
        self.stack.clear();
        let mut tip = match first {
            Some(edge) => self.look(edge, probe),
            None => {
                self.stack.push((root, 0));
                None
            }
        };
        let mut visits = 0u64;
        while tip.is_none() {
            let Some(top) = self.stack.last_mut() else {
                break;
            };
            let left = top.0;
            let Some(&(right, id)) = probe.adj.row(left as usize).get(top.1 as usize) else {
                self.stack.pop();
                continue;
            };
            top.1 += 1;
            visits += 1;
            let edge = TreeEdge {
                owner: root,
                left,
                right,
                id,
            };
            tip = self.look(edge, probe);
        }
        counters::add(Counter::DfsEdgeVisits, visits);
        let Some(mut r) = tip else { return false };
        loop {
            let n = self.right[r as usize];
            let l = n.from as usize;
            let prev = std::mem::replace(&mut probe.left[l], r);
            probe.right[r as usize] = n.from;
            probe.via[l] = n.via;
            if prev == NIL {
                break;
            }
            r = prev;
        }
        let mut i = self.blocked_head[root as usize];
        while i != NIL {
            let (edge, next) = self.blocked[i as usize];
            self.wake.push(edge);
            i = next;
        }
        true
    }

    /// Tree `edge.owner` looks along `edge`. A right of its own is old
    /// news; a right of another live tree blocks the edge until that tree
    /// is released; any other right joins the tree — returned when it is
    /// free, the tip of an augmenting path, else its partner is stacked to
    /// be scanned next.
    fn look(&mut self, edge: TreeEdge, probe: &Probe) -> Option<u32> {
        if let Some(blocker) = self.tree_of(edge.right, probe.left) {
            if blocker != edge.owner {
                let head = &mut self.blocked_head[blocker as usize];
                self.blocked.push((edge, *head));
                *head = (self.blocked.len() - 1) as u32;
            }
            return None;
        }
        self.right[edge.right as usize] = ForestRight {
            stamp: self.epoch,
            root: edge.owner,
            from: edge.left,
            via: edge.id,
        };
        match probe.right[edge.right as usize] {
            NIL => Some(edge.right),
            partner => {
                self.stack.push((partner, 0));
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_graph, GraphParams};
    use crate::{bottleneck, greedy, hopcroft_karp};
    use rand::{rngs::SmallRng, SeedableRng};

    /// Peels `g` to emptiness with `step`, calling `oracle` on the same
    /// residual graph first and asserting exact agreement per peel.
    fn drive<F, O>(mut g: Graph, mut step: F, mut oracle: O)
    where
        F: FnMut(&mut MatchingEngine, &Graph) -> Matching,
        O: FnMut(&Graph, &Matching) -> Matching,
    {
        let mut engine = MatchingEngine::for_graph(&g);
        let mut carried = Matching::new();
        while !g.is_empty() {
            let survivors = Matching::from_edges(
                carried
                    .edges()
                    .iter()
                    .copied()
                    .filter(|&e| g.is_alive(e))
                    .collect(),
            );
            let expect = oracle(&g, &survivors);
            let got = step(&mut engine, &g);
            assert_eq!(got.edges(), expect.edges(), "engine diverged from oracle");
            let quantum = got
                .min_weight(&g)
                .expect("non-empty graph yields a matching");
            for &e in got.edges() {
                g.decrease_weight(e, quantum);
            }
            engine.observe_peel(&g, &got, quantum);
            carried = got;
        }
    }

    fn campaign(seed: u64) -> impl Iterator<Item = Graph> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let params = GraphParams {
            max_nodes_per_side: 8,
            max_edges: 40,
            weight_range: (1, 25),
        };
        (0..60).map(move |_| random_graph(&mut rng, &params))
    }

    #[test]
    fn any_perfect_equals_seeded_oracle_chain() {
        for g in campaign(5) {
            drive(
                g,
                |e, g| e.any_perfect_matching(g),
                hopcroft_karp::maximum_matching_seeded,
            );
        }
    }

    #[test]
    fn greedy_seeded_equals_cold_greedy_per_peel() {
        for g in campaign(6) {
            drive(
                g,
                |e, g| e.greedy_seeded_matching(g),
                |g, _| {
                    let seed = greedy::maximal_matching_heaviest_first(g);
                    hopcroft_karp::maximum_matching_seeded(g, &seed)
                },
            );
        }
    }

    #[test]
    fn max_min_equals_cold_bottleneck_per_peel() {
        for g in campaign(7) {
            drive(
                g,
                |e, g| e.max_min_matching(g),
                |g, _| bottleneck::max_min_matching(g),
            );
        }
    }

    #[test]
    fn engine_reusable_across_runs() {
        let mut engine = MatchingEngine::new();
        let mut rng = SmallRng::seed_from_u64(8);
        let params = GraphParams {
            max_nodes_per_side: 6,
            max_edges: 24,
            weight_range: (1, 12),
        };
        for _ in 0..20 {
            let mut g = random_graph(&mut rng, &params);
            engine.begin(&g);
            while !g.is_empty() {
                let expect = bottleneck::max_min_matching(&g);
                let got = engine.max_min_matching(&g);
                assert_eq!(got.edges(), expect.edges());
                let quantum = got.min_weight(&g).unwrap();
                for &e in got.edges() {
                    g.decrease_weight(e, quantum);
                }
                engine.observe_peel(&g, &got, quantum);
            }
        }
    }

    /// Alternating modes within one run forces every lazy order-
    /// representation switch (stale -> split -> full -> split, and the
    /// any-perfect downgrade of a live split); each mode must still agree
    /// with its cold oracle right after a switch.
    #[test]
    fn mode_switches_rebuild_order_lazily() {
        let mut rng = SmallRng::seed_from_u64(9);
        let params = GraphParams {
            max_nodes_per_side: 6,
            max_edges: 24,
            weight_range: (1, 12),
        };
        for round in 0..20 {
            let mut g = random_graph(&mut rng, &params);
            let mut engine = MatchingEngine::for_graph(&g);
            let mut turn = round; // vary which mode opens the run
            while !g.is_empty() {
                let m = match turn % 3 {
                    0 => {
                        let expect = bottleneck::max_min_matching(&g);
                        let got = engine.max_min_matching(&g);
                        assert_eq!(got.edges(), expect.edges());
                        got
                    }
                    1 => {
                        let seed = greedy::maximal_matching_heaviest_first(&g);
                        let expect = hopcroft_karp::maximum_matching_seeded(&g, &seed);
                        let got = engine.greedy_seeded_matching(&g);
                        assert_eq!(got.edges(), expect.edges());
                        got
                    }
                    _ => {
                        let got = engine.any_perfect_matching(&g);
                        assert_eq!(got.len(), hopcroft_karp::maximum_matching(&g).len());
                        assert!(got.is_valid(&g));
                        got
                    }
                };
                turn += 1;
                let quantum = m.min_weight(&g).unwrap();
                for &e in m.edges() {
                    g.decrease_weight(e, quantum);
                }
                engine.observe_peel(&g, &m, quantum);
            }
        }
    }

    #[test]
    fn empty_graph_yields_empty_matchings() {
        let g = Graph::new(3, 3);
        let mut engine = MatchingEngine::for_graph(&g);
        assert!(engine.any_perfect_matching(&g).is_empty());
        assert!(engine.max_min_matching(&g).is_empty());
        assert!(engine.greedy_seeded_matching(&g).is_empty());
        assert_eq!(engine.last_bottleneck(), None);
    }

    #[test]
    fn warm_bound_survives_cardinality_changes() {
        // A graph engineered so the maximum cardinality drops between
        // peels: the warm bound must be bypassed, not trusted. Left 1's
        // only edge dies in the first peel, and the surviving heavy edge
        // has a *larger* bottleneck than the first peel's.
        let mut g = Graph::new(2, 2);
        g.add_edge(0, 0, 100);
        g.add_edge(1, 1, 1);
        let mut engine = MatchingEngine::for_graph(&g);
        let m1 = engine.max_min_matching(&g);
        assert_eq!(m1.len(), 2);
        assert_eq!(m1.min_weight(&g), Some(1));
        for &e in m1.edges() {
            g.decrease_weight(e, 1);
        }
        engine.observe_peel(&g, &m1, 1);
        let m2 = engine.max_min_matching(&g);
        assert_eq!(m2.len(), 1);
        assert_eq!(m2.min_weight(&g), Some(99));
        assert_eq!(engine.last_bottleneck(), Some(99));
    }

    /// A forest stamp written at epoch 1 must not read as current when the
    /// 32-bit epoch wraps back to 1: the wrap clears the stamps (counted as
    /// one `epoch_resets`) and the searches after it still find `t*`.
    #[test]
    fn forest_epoch_wrap_clears_stamps_and_counts() {
        use telemetry::counters::{self, Counter};
        let _guard = crate::testutil::COUNTER_LOCK.lock().unwrap();
        for g in campaign(13).take(20) {
            counters::enable();
            let before = counters::local_snapshot();
            let mut peels = 0;
            drive(
                g,
                |e, g| {
                    if peels == 1 {
                        // The next search opens epoch u32::MAX, the one
                        // after wraps to 1 — the epoch the first stamped.
                        e.forest.force_epoch(u32::MAX - 1);
                    }
                    peels += 1;
                    e.max_min_matching(g)
                },
                |g, _| bottleneck::max_min_matching(g),
            );
            let delta = counters::local_snapshot().delta(&before);
            counters::disable();
            assert_eq!(delta.get(Counter::EpochResets), u64::from(peels >= 3));
        }
    }

    /// The headline tentpole guarantee: across a whole peeling run the
    /// engine performs exactly one adjacency build (at `begin`) and zero
    /// full scratch clears, no matter how many peels, probes and
    /// augmentations happen.
    #[test]
    fn one_adj_build_per_run_and_no_epoch_resets() {
        use telemetry::counters::{self, Counter};
        let _guard = crate::testutil::COUNTER_LOCK.lock().unwrap();
        let mut rng = SmallRng::seed_from_u64(12);
        let params = GraphParams {
            max_nodes_per_side: 8,
            max_edges: 40,
            weight_range: (1, 25),
        };
        let mut engine = MatchingEngine::new();
        for _ in 0..10 {
            let mut g = random_graph(&mut rng, &params);
            counters::enable();
            let before = counters::local_snapshot();
            engine.begin(&g);
            while !g.is_empty() {
                let m = engine.max_min_matching(&g);
                let quantum = m.min_weight(&g).unwrap();
                for &e in m.edges() {
                    g.decrease_weight(e, quantum);
                }
                engine.observe_peel(&g, &m, quantum);
            }
            let delta = counters::local_snapshot().delta(&before);
            counters::disable();
            assert_eq!(
                delta.get(Counter::AdjRebuilds),
                1,
                "exactly one CSR build per peeling run"
            );
            assert_eq!(
                delta.get(Counter::EpochResets),
                0,
                "no full scratch clears during a run"
            );
        }
    }
}
