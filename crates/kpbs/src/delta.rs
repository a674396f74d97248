//! Online delta-planning: repair a committed schedule under sparse edits.
//!
//! The batch planners ([`mod@crate::ggp`], [`mod@crate::oggp`]) answer one matrix;
//! a control plane for continuous traffic faces a *sequence* of closely
//! related matrices — a cell grows, a message is cancelled, a node joins
//! or drops. [`DeltaPlanner`] owns a live [`Instance`] plus its committed
//! [`Schedule`] and patches both in place, climbing a three-level repair
//! ladder instead of re-planning from scratch:
//!
//! * **Level 0 — repair** ([`RepairLevel::Repair`]): weight decreases trim
//!   transfer amounts from the tail of the schedule (cost can only drop);
//!   increases are absorbed cost-free into existing slack — a transfer on
//!   the same cell is raised up to its step's duration, or a new transfer
//!   is inserted into a step where both ports are idle and the backbone
//!   still has width.
//! * **Level 1 — bounded re-peel** ([`RepairLevel::RePeel`]): increases
//!   that do not fit in slack form a residual instance over the same node
//!   sets, planned by the warm incremental engine (the
//!   [`IncrementalMaxMin`] strategy keeps its scratch allocations across
//!   replans) and appended as extra steps.
//! * **Level 2 — cold fallback** ([`RepairLevel::Cold`]): the planner
//!   rebuilds the instance canonically (row-major, like
//!   [`TrafficMatrix::to_instance`](crate::traffic::TrafficMatrix)) and
//!   re-plans with OGGP — so a cold fallback is byte-identical to what a
//!   stateless server would have produced for the post-delta matrix. It
//!   fires on any of three triggers:
//!   - the residual exceeds the re-peel budget;
//!   - a patched schedule costs more than [`REPLAN_COST_FACTOR`] × the
//!     lower bound (the outer ceiling);
//!   - a patched schedule's cost / lower bound drifts past
//!     [`REBASE_PERCENT`] % of the last cold plan's (the OPEN plan or the
//!     last cold fallback). This rebase keeps a session young: the rebuild
//!     renumbers edges densely and drops the tombstones of removed cells,
//!     and the fresh plan sheds the slivers repairs appended.
//!
//! Every replan, at every level, re-establishes the subsystem invariant
//! before returning: the patched schedule passes [`crate::validate`] and
//! delivers *exactly* the post-delta matrix (one dense target matrix
//! compared with one dense delivered matrix). Violations panic — a
//! schedule that silently under- or over-delivers must never reach a
//! caller.

use crate::ggp::schedule_with;
use crate::lower_bound::lower_bound;
use crate::oggp::oggp;
use crate::problem::Instance;
use crate::residual::residual_matrix;
use crate::schedule::{Schedule, Step, Transfer};
use crate::traffic::TrafficMatrix;
use crate::validate::validate;
use crate::wrgp::IncrementalMaxMin;
use bipartite::{EdgeId, Graph, Weight};
use std::collections::HashSet;
use telemetry::counters::{self, Counter};

/// A patched schedule may cost at most this factor times the post-delta
/// lower bound before the planner abandons repair and falls back to a cold
/// plan. OGGP itself is a 2-approximation, so a healthy repaired schedule
/// sits well under the ceiling; repeated trims that strand tiny amounts
/// across many β-paying steps are what this catches.
///
/// This is the outer ceiling of the Level 2 triggers. The others are a
/// residual larger than the re-peel budget, and a cost / lower bound that
/// drifts past [`REBASE_PERCENT`] % of the last cold plan's.
pub const REPLAN_COST_FACTOR: u64 = 3;

/// A repaired or re-peeled schedule whose cost / lower bound exceeds this
/// percentage of the last cold plan's ratio is rebased on a fresh cold
/// plan: the rebase fires when `cost · lb_cold · 100 > REBASE_PERCENT ·
/// cost_cold · lb`, evaluated in saturating `u128`. Measured against the
/// last cold plan, not against the lower bound alone, so an instance whose
/// cold plan itself sits far above its bound is not re-planned every
/// round.
pub const REBASE_PERCENT: u64 = 115;

/// Default bound on the number of residual cells level 1 will re-peel;
/// larger edit batches go straight to a cold plan.
pub const DEFAULT_REPEEL_BUDGET: usize = 64;

/// One sparse edit to the live communication matrix. Edits are applied in
/// order, so a [`MatrixDelta::GrowNodes`] may be followed in the same batch
/// by [`MatrixDelta::Set`] entries addressing the new nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixDelta {
    /// Sets cell `(sender, receiver)` to `ticks` (zero clears the cell).
    Set {
        /// Left-side (sender) node index.
        sender: usize,
        /// Right-side (receiver) node index.
        receiver: usize,
        /// New weight of the cell in ticks; `0` removes the message.
        ticks: Weight,
    },
    /// Appends `senders` left-side and `receivers` right-side nodes.
    GrowNodes {
        /// Number of sender nodes to append.
        senders: usize,
        /// Number of receiver nodes to append.
        receivers: usize,
    },
    /// Clears every cell of sender `0`'s row `(i, *)` — the node left the
    /// redistribution; its index stays valid (and re-usable) afterwards.
    DropSender(
        /// Left-side node index whose outgoing messages are cancelled.
        usize,
    ),
    /// Clears every cell of the receiver column `(*, j)`.
    DropReceiver(
        /// Right-side node index whose incoming messages are cancelled.
        usize,
    ),
}

/// Which rung of the repair ladder served a [`DeltaPlanner::replan`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairLevel {
    /// Absorbed entirely by in-place trims and slack insertions.
    Repair,
    /// Needed a bounded re-peel of the residual increase instance.
    RePeel,
    /// Fell back to a full cold plan of the post-delta instance.
    Cold,
}

impl RepairLevel {
    /// Stable lower-case label (wire frames, logs, JSON).
    pub fn label(self) -> &'static str {
        match self {
            RepairLevel::Repair => "repair",
            RepairLevel::RePeel => "repeel",
            RepairLevel::Cold => "cold",
        }
    }
}

/// What a [`DeltaPlanner::replan`] call did and what it left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplanOutcome {
    /// The repair-ladder rung that produced the committed schedule.
    pub level: RepairLevel,
    /// Monotone per-planner generation, bumped once per replan.
    pub generation: u64,
    /// Cost `Σ (β + duration)` of the committed post-delta schedule.
    pub cost: u64,
    /// Lower bound of the post-delta instance.
    pub lower_bound: u64,
}

/// A stateful planner for one live redistribution: the current instance,
/// its committed schedule, and the warm matching engine that makes
/// incremental repair cheap. See the module docs for the repair ladder.
#[derive(Debug)]
pub struct DeltaPlanner {
    inst: Instance,
    schedule: Schedule,
    strategy: IncrementalMaxMin,
    generation: u64,
    repeel_budget: usize,
    /// Cost and lower bound (each at least 1) of the last cold plan: the
    /// OPEN plan, or the last [`RepairLevel::Cold`] rung.
    cold: (u64, u64),
}

impl DeltaPlanner {
    /// Opens a planning session: cold-plans `inst` with OGGP (warming the
    /// incremental engine in the process) and commits the result.
    ///
    /// # Panics
    ///
    /// Panics if `inst.graph` carries parallel edges between the same cell
    /// — the planner maintains a dense-matrix view where each `(sender,
    /// receiver)` pair has at most one live edge. Instances built from a
    /// traffic matrix (the serving path) always satisfy this.
    pub fn new(inst: Instance) -> DeltaPlanner {
        Self::with_repeel_budget(inst, DEFAULT_REPEEL_BUDGET)
    }

    /// [`DeltaPlanner::new`] with an explicit level-1 re-peel budget:
    /// residuals of more than `repeel_budget` cells go straight to a cold
    /// plan.
    pub fn with_repeel_budget(inst: Instance, repeel_budget: usize) -> DeltaPlanner {
        let mut seen = HashSet::new();
        for (_, l, r, _) in inst.graph.edges() {
            assert!(
                seen.insert((l, r)),
                "DeltaPlanner requires at most one edge per cell, found a parallel edge at ({l}, {r})"
            );
        }
        let mut strategy = IncrementalMaxMin::new();
        let schedule = schedule_with(&inst, &mut strategy);
        counters::incr(Counter::DeltaSessionsOpened);
        let cold = cold_record(schedule.cost(), lower_bound(&inst));
        DeltaPlanner {
            inst,
            schedule,
            strategy,
            generation: 0,
            repeel_budget,
            cold,
        }
    }

    /// The live post-delta instance.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// The committed schedule delivering exactly the current instance.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Replans performed so far (0 for a freshly opened session).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Current weight of cell `(sender, receiver)` in ticks.
    pub fn cell(&self, sender: usize, receiver: usize) -> Weight {
        self.inst
            .graph
            .find_edge(sender, receiver)
            .map_or(0, |e| self.inst.graph.weight(e))
    }

    /// The current communication matrix as a dense [`TrafficMatrix`]
    /// (cells in ticks) — the post-delta target every committed schedule
    /// delivers exactly.
    pub fn target_matrix(&self) -> TrafficMatrix {
        let mut t =
            TrafficMatrix::zeros(self.inst.graph.left_count(), self.inst.graph.right_count());
        for (_, l, r, w) in self.inst.graph.edges() {
            t.set(l, r, w);
        }
        t
    }

    /// What the committed schedule actually delivers, per cell, in ticks.
    pub fn delivered_matrix(&self) -> TrafficMatrix {
        let g = &self.inst.graph;
        let mut t = TrafficMatrix::zeros(g.left_count(), g.right_count());
        for step in &self.schedule.steps {
            for tr in &step.transfers {
                let (l, r) = (g.left_of(tr.edge), g.right_of(tr.edge));
                t.set(l, r, t.get(l, r) + tr.amount);
            }
        }
        t
    }

    /// Applies `deltas` in order and repairs the committed schedule,
    /// climbing the repair ladder as far as necessary. On return the
    /// committed schedule is feasible ([`crate::validate`]) and delivers
    /// exactly the post-delta matrix; both are re-checked on every call.
    ///
    /// # Panics
    ///
    /// Panics if a delta addresses a node out of range, or if the repaired
    /// schedule fails its feasibility/delivery re-check (an internal
    /// invariant violation, never expected).
    pub fn replan(&mut self, deltas: &[MatrixDelta]) -> ReplanOutcome {
        self.generation += 1;

        // Phase 1 — apply the edits to the graph, remembering each touched
        // cell's pre-batch weight so net changes survive multiple edits to
        // the same cell within one batch: the first record of a cell wins.
        let mut touched: Vec<(usize, usize, Weight)> = Vec::new();
        for d in deltas {
            match *d {
                MatrixDelta::Set {
                    sender,
                    receiver,
                    ticks,
                } => {
                    assert!(
                        sender < self.inst.graph.left_count(),
                        "delta sender {sender} out of range"
                    );
                    assert!(
                        receiver < self.inst.graph.right_count(),
                        "delta receiver {receiver} out of range"
                    );
                    let old = self.cell(sender, receiver);
                    touched.push((sender, receiver, old));
                    if ticks == old {
                        continue;
                    }
                    if ticks == 0 {
                        let e = self.inst.graph.find_edge(sender, receiver).unwrap();
                        self.inst.graph.remove_edge(e);
                    } else {
                        self.inst.graph.upsert_edge(sender, receiver, ticks);
                    }
                }
                MatrixDelta::GrowNodes { senders, receivers } => {
                    for _ in 0..senders {
                        self.inst.graph.add_left_node();
                    }
                    for _ in 0..receivers {
                        self.inst.graph.add_right_node();
                    }
                }
                MatrixDelta::DropSender(i) => {
                    assert!(
                        i < self.inst.graph.left_count(),
                        "dropped sender {i} out of range"
                    );
                    let row: Vec<(EdgeId, usize, Weight)> = self
                        .inst
                        .graph
                        .edges_of_left(i)
                        .map(|e| (e, self.inst.graph.right_of(e), self.inst.graph.weight(e)))
                        .collect();
                    for (e, j, w) in row {
                        touched.push((i, j, w));
                        self.inst.graph.remove_edge(e);
                    }
                }
                MatrixDelta::DropReceiver(j) => {
                    assert!(
                        j < self.inst.graph.right_count(),
                        "dropped receiver {j} out of range"
                    );
                    let col: Vec<(EdgeId, usize, Weight)> = self
                        .inst
                        .graph
                        .edges_of_right(j)
                        .map(|e| (e, self.inst.graph.left_of(e), self.inst.graph.weight(e)))
                        .collect();
                    for (e, i, w) in col {
                        touched.push((i, j, w));
                        self.inst.graph.remove_edge(e);
                    }
                }
            }
        }
        // Sorted by cell, ties in batch order (a stable sort), so `dedup`
        // keeps each cell's first record: its pre-batch weight.
        touched.sort_by_key(|&(i, j, _)| (i, j));
        touched.dedup_by_key(|&mut (i, j, _)| (i, j));
        let current: Vec<Option<EdgeId>> = touched
            .iter()
            .map(|&(i, j, _)| self.inst.graph.find_edge(i, j))
            .collect();

        // Phase 2 — one pass over the schedule: collect the positions of
        // every transfer on a touched cell (for trims and raises), remap
        // edge ids where the batch removed and re-created a cell's edge,
        // and record per-step occupancy for the slack-insertion pass.
        // Durations are taken before any trimming, so repairs never raise
        // a step past its pre-replan length. A transfer is looked up among
        // the touched cells only when its sender was touched at all.
        let (n1, n2) = (self.inst.graph.left_count(), self.inst.graph.right_count());
        let mut sender_touched = vec![false; n1];
        for &(i, _, _) in &touched {
            sender_touched[i] = true;
        }
        let nsteps = self.schedule.steps.len();
        let mut used_left = PortBitmap::new(nsteps, n1);
        let mut used_right = PortBitmap::new(nsteps, n2);
        let mut duration: Vec<Weight> = Vec::with_capacity(nsteps);
        let mut width: Vec<usize> = Vec::with_capacity(nsteps);
        // (touched-cell index, step, slot), in schedule order per cell once
        // sorted.
        let mut positions: Vec<(usize, usize, usize)> = Vec::new();
        for (si, step) in self.schedule.steps.iter_mut().enumerate() {
            duration.push(step.duration());
            width.push(step.transfers.len());
            for (ti, tr) in step.transfers.iter_mut().enumerate() {
                let (l, r) = (
                    self.inst.graph.left_of(tr.edge),
                    self.inst.graph.right_of(tr.edge),
                );
                used_left.insert(si, l);
                used_right.insert(si, r);
                if !sender_touched[l] {
                    continue;
                }
                if let Ok(c) = touched.binary_search_by_key(&(l, r), |&(i, j, _)| (i, j)) {
                    if let Some(e) = current[c] {
                        tr.edge = e;
                    }
                    positions.push((c, si, ti));
                }
            }
        }
        positions.sort_unstable();

        // Phase 3 — level-0 repair. Decreases trim from the tail;
        // increases raise same-cell transfers up to the step duration,
        // then claim idle ports in under-width steps. Whatever remains
        // becomes the residual for level 1. Zeroed transfers are swept
        // only after all cells are processed so recorded positions stay
        // valid throughout.
        let k = self.inst.effective_k();
        let mut residual: Vec<(usize, usize, Weight)> = Vec::new();
        let mut spots_from = 0;
        for (c, &(i, j, before)) in touched.iter().enumerate() {
            let spots_to = spots_from + positions[spots_from..].partition_point(|p| p.0 == c);
            let spots = &positions[spots_from..spots_to];
            spots_from = spots_to;
            let after = self.cell(i, j);
            if after < before {
                let mut trim = before - after;
                for &(_, si, ti) in spots.iter().rev() {
                    if trim == 0 {
                        break;
                    }
                    let tr = &mut self.schedule.steps[si].transfers[ti];
                    let cut = trim.min(tr.amount);
                    tr.amount -= cut;
                    trim -= cut;
                }
                debug_assert_eq!(trim, 0, "schedule delivered less than the cell held");
            } else if after > before {
                let e = current[c].expect("a grown cell has a live edge");
                let mut grow = after - before;
                for &(_, si, ti) in spots {
                    if grow == 0 {
                        break;
                    }
                    let tr = &mut self.schedule.steps[si].transfers[ti];
                    let slack = duration[si].saturating_sub(tr.amount);
                    let take = grow.min(slack);
                    tr.amount += take;
                    grow -= take;
                }
                for si in 0..nsteps {
                    if grow == 0 {
                        break;
                    }
                    if width[si] >= k || used_left.contains(si, i) || used_right.contains(si, j) {
                        continue;
                    }
                    let take = grow.min(duration[si]);
                    self.schedule.steps[si].transfers.push(Transfer {
                        edge: e,
                        amount: take,
                    });
                    width[si] += 1;
                    used_left.insert(si, i);
                    used_right.insert(si, j);
                    grow -= take;
                }
                if grow > 0 {
                    residual.push((i, j, grow));
                }
            }
        }

        // Phase 4 — climb the ladder if slack was not enough.
        let mut level = RepairLevel::Repair;
        if !residual.is_empty() {
            if residual.len() > self.repeel_budget {
                level = RepairLevel::Cold;
            } else {
                let mut res_g =
                    Graph::new(self.inst.graph.left_count(), self.inst.graph.right_count());
                let mut back: Vec<EdgeId> = Vec::with_capacity(residual.len());
                for &(i, j, w) in &residual {
                    res_g.add_edge(i, j, w);
                    back.push(self.inst.graph.find_edge(i, j).unwrap());
                }
                let res_inst = Instance::new(res_g, self.inst.k, self.inst.beta);
                let patch = schedule_with(&res_inst, &mut self.strategy);
                for step in patch.steps {
                    self.schedule.steps.push(Step {
                        transfers: step
                            .transfers
                            .into_iter()
                            .map(|tr| Transfer {
                                edge: back[tr.edge.index()],
                                amount: tr.amount,
                            })
                            .collect(),
                    });
                }
                level = RepairLevel::RePeel;
            }
        }

        // Sweep transfers trimmed to zero and the steps they emptied.
        for step in &mut self.schedule.steps {
            step.transfers.retain(|tr| tr.amount > 0);
        }
        self.schedule
            .steps
            .retain(|step| !step.transfers.is_empty());

        // Phase 5 — cost ceiling and drift past the last cold plan, then
        // the unconditional re-check. A cold fallback is canonical, so it
        // needs no ceiling of its own; it renumbers edges densely, drops
        // tombstones and becomes the reference the next drift is measured
        // against.
        let lb = lower_bound(&self.inst);
        if level != RepairLevel::Cold {
            let cost = self.schedule.cost();
            let (cold_cost, cold_lb) = self.cold;
            // Each product fits u128; the percentage factors saturate, so
            // only when both sides pass u128::MAX (ticks near 2^60) does
            // the drift test stay off and leave the ceiling to act alone.
            let drifted = (u128::from(cost) * u128::from(cold_lb)).saturating_mul(100)
                > (u128::from(cold_cost) * u128::from(lb))
                    .saturating_mul(u128::from(REBASE_PERCENT));
            if cost > REPLAN_COST_FACTOR * lb.max(1) || drifted {
                level = RepairLevel::Cold;
            }
        }
        if level == RepairLevel::Cold {
            self.rebuild_cold();
            self.cold = cold_record(self.schedule.cost(), lb);
        }
        counters::incr(match level {
            RepairLevel::Repair => Counter::DeltaRepairs,
            RepairLevel::RePeel => Counter::DeltaRePeels,
            RepairLevel::Cold => Counter::DeltaColdFallbacks,
        });
        self.assert_invariant();
        ReplanOutcome {
            level,
            generation: self.generation,
            cost: self.schedule.cost(),
            lower_bound: lb,
        }
    }

    /// Rebuilds the instance canonically (cells in row-major order, the
    /// same construction [`TrafficMatrix::to_instance`] uses) and re-plans
    /// from scratch with OGGP, so the committed schedule is byte-identical
    /// to a stateless cold plan of the post-delta matrix.
    fn rebuild_cold(&mut self) {
        let mut cells: Vec<(usize, usize, Weight)> = self
            .inst
            .graph
            .edges()
            .map(|(_, l, r, w)| (l, r, w))
            .collect();
        cells.sort_unstable();
        let mut g = Graph::new(self.inst.graph.left_count(), self.inst.graph.right_count());
        for &(l, r, w) in &cells {
            g.add_edge(l, r, w);
        }
        self.inst = Instance::new(g, self.inst.k, self.inst.beta);
        self.schedule = oggp(&self.inst);
    }

    /// The subsystem invariant: the committed schedule is feasible and
    /// delivers exactly the current matrix (nothing under, nothing over).
    fn assert_invariant(&self) {
        if let Err(e) = validate(&self.inst, &self.schedule) {
            panic!("delta replan produced an infeasible schedule: {e}");
        }
        self.assert_delivers();
    }

    /// The delivery half of [`Self::assert_invariant`]: the schedule moves
    /// exactly the dense target matrix, cell by cell.
    fn assert_delivers(&self) {
        let target = self.target_matrix();
        let delivered = self.delivered_matrix();
        if target != delivered {
            let under = residual_matrix(&target, &delivered).total_bytes();
            let over = residual_matrix(&delivered, &target).total_bytes();
            panic!("delta replan delivery mismatch: {under} ticks under, {over} ticks over");
        }
    }
}

/// The drift reference of a cold plan. An empty instance's plan has cost and
/// lower bound 0; it is recorded as ratio 1, so growth from nothing is held
/// within [`REBASE_PERCENT`] % of the bound itself.
fn cold_record(cost: u64, lb: u64) -> (u64, u64) {
    (cost.max(1), lb.max(1))
}

/// Per-step port occupancy as one flat bitmap: `steps × ⌈nodes/64⌉` words,
/// bit `node` of step `step`'s row set when the step uses that port.
struct PortBitmap {
    words: usize,
    bits: Vec<u64>,
}

impl PortBitmap {
    fn new(steps: usize, nodes: usize) -> PortBitmap {
        let words = nodes.div_ceil(64);
        PortBitmap {
            words,
            bits: vec![0; steps * words],
        }
    }

    fn insert(&mut self, step: usize, node: usize) {
        self.bits[step * self.words + node / 64] |= 1 << (node % 64);
    }

    fn contains(&self, step: usize, node: usize) -> bool {
        self.bits[step * self.words + node / 64] & (1 << (node % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_instance(n: usize, seed: u64, k: usize, beta: u64) -> Instance {
        let mut g = Graph::new(n, n);
        let mut state = seed | 1;
        for i in 0..n {
            for j in 0..n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state % 10 < 4 {
                    g.add_edge(i, j, 1 + state % 100);
                }
            }
        }
        Instance::new(g, k, beta)
    }

    fn set(i: usize, j: usize, t: u64) -> MatrixDelta {
        MatrixDelta::Set {
            sender: i,
            receiver: j,
            ticks: t,
        }
    }

    #[test]
    fn open_commits_a_valid_cold_plan() {
        let inst = dense_instance(8, 0xfeed, 4, 2);
        let p = DeltaPlanner::new(inst);
        assert_eq!(p.generation(), 0);
        validate(p.instance(), p.schedule()).unwrap();
    }

    #[test]
    fn decrease_trims_without_replanning() {
        let inst = dense_instance(8, 0xfeed, 4, 2);
        let mut p = DeltaPlanner::new(inst);
        let (i, j, w) = p
            .instance()
            .graph
            .edges()
            .map(|(_, l, r, w)| (l, r, w))
            .next()
            .unwrap();
        let before = p.schedule().cost();
        let out = p.replan(&[set(i, j, w / 2 + 1)]);
        assert_eq!(out.level, RepairLevel::Repair);
        assert_eq!(out.generation, 1);
        assert!(out.cost <= before, "trims can only reduce cost");
        assert_eq!(p.cell(i, j), w / 2 + 1);
    }

    #[test]
    fn clear_and_drop_empty_the_schedule() {
        let mut g = Graph::new(2, 2);
        g.add_edge(0, 0, 5);
        g.add_edge(1, 1, 3);
        let mut p = DeltaPlanner::new(Instance::new(g, 2, 1));
        p.replan(&[set(0, 0, 0), MatrixDelta::DropSender(1)]);
        assert_eq!(p.schedule().num_steps(), 0);
        assert_eq!(p.target_matrix().total_bytes(), 0);
    }

    #[test]
    fn increase_absorbs_into_slack() {
        // Two parallel cells of different length: the shorter transfer has
        // slack up to the longer one's duration in the same step.
        let mut g = Graph::new(2, 2);
        g.add_edge(0, 0, 10);
        g.add_edge(1, 1, 6);
        let mut p = DeltaPlanner::new(Instance::new(g, 2, 1));
        let before = p.schedule().cost();
        let out = p.replan(&[set(1, 1, 9)]);
        assert_eq!(out.level, RepairLevel::Repair);
        assert_eq!(out.cost, before, "slack absorption is cost-free");
    }

    #[test]
    fn new_cell_in_idle_ports_is_inserted() {
        // One step carries (0,0) and (1,1) at duration 10; receiver 2 is
        // idle and the step is under-width, so a joining sender's message
        // slots straight into the existing step.
        let mut g = Graph::new(2, 3);
        g.add_edge(0, 0, 10);
        g.add_edge(1, 1, 10);
        let mut p = DeltaPlanner::new(Instance::new(g, 3, 1));
        let before = p.schedule().cost();
        let out = p.replan(&[
            MatrixDelta::GrowNodes {
                senders: 1,
                receivers: 0,
            },
            set(2, 2, 8),
        ]);
        assert_eq!(out.level, RepairLevel::Repair);
        assert_eq!(out.cost, before, "idle-port insertion is cost-free");
    }

    #[test]
    fn unabsorbable_growth_repeels() {
        let mut g = Graph::new(2, 2);
        g.add_edge(0, 0, 4);
        g.add_edge(1, 1, 4);
        let mut p = DeltaPlanner::new(Instance::new(g, 2, 1));
        // Both ports of both steps busy; a big new cross cell cannot hide
        // in slack.
        let out = p.replan(&[set(0, 1, 400)]);
        assert!(matches!(out.level, RepairLevel::RePeel | RepairLevel::Cold));
        assert_eq!(p.cell(0, 1), 400);
    }

    #[test]
    fn drift_past_the_last_cold_plan_rebases() {
        // One step of two 10-tick cells, β = 10: cost 20 = lb. Raising
        // (0, 0) to 20 re-peels a second step (cost 40 against lb 30), a
        // ratio past `REBASE_PERCENT` of the open plan's 1.0 though under
        // the ceiling, so the planner rebases.
        let mut g = Graph::new(2, 2);
        g.add_edge(0, 0, 10);
        g.add_edge(1, 1, 10);
        let mut p = DeltaPlanner::new(Instance::new(g, 2, 10));
        assert_eq!(p.cold, (20, 20));
        let out = p.replan(&[set(0, 0, 20)]);
        assert_eq!(out.level, RepairLevel::Cold);
        assert_eq!(p.cold, (out.cost, out.lower_bound));
        // The rebase is the new reference: the same matrix again repairs.
        assert_eq!(p.replan(&[set(0, 0, 20)]).level, RepairLevel::Repair);
    }

    #[test]
    fn over_budget_batches_go_cold() {
        let inst = dense_instance(8, 0xbeef, 4, 1);
        let mut p = DeltaPlanner::with_repeel_budget(inst, 0);
        let out = p.replan(&[set(0, 0, 100_000)]);
        assert_eq!(out.level, RepairLevel::Cold);
        assert_eq!(p.cell(0, 0), 100_000);
    }

    #[test]
    fn cold_fallback_matches_stateless_plan() {
        let inst = dense_instance(6, 0x5eed, 3, 1);
        let mut p = DeltaPlanner::with_repeel_budget(inst, 0);
        p.replan(&[set(1, 2, 77), set(3, 0, 0)]);
        // Reference: a stateless cold plan of the post-delta matrix.
        let t = p.target_matrix();
        let mut g = Graph::new(6, 6);
        for i in 0..6 {
            for j in 0..6 {
                if t.get(i, j) > 0 {
                    g.add_edge(i, j, t.get(i, j));
                }
            }
        }
        let reference = oggp(&Instance::new(g, 3, 1));
        assert_eq!(p.schedule().steps, reference.steps);
    }

    #[test]
    fn generations_are_monotone_over_a_stream() {
        let inst = dense_instance(10, 0xabcd, 5, 2);
        let mut p = DeltaPlanner::new(inst);
        let mut state = 0x1234_5678_u64 | 1;
        for gen in 1..=20u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let i = (state % 10) as usize;
            let j = ((state >> 8) % 10) as usize;
            let w = state % 200;
            let out = p.replan(&[set(i, j, w)]);
            assert_eq!(out.generation, gen);
            assert_eq!(p.cell(i, j), w);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_delta_panics() {
        let mut p = DeltaPlanner::new(dense_instance(4, 0x77, 2, 1));
        p.replan(&[set(9, 0, 5)]);
    }

    /// Moves one tick of the first transfer of cell `(0, 0)` up or down.
    fn tampered(up: bool) -> DeltaPlanner {
        let mut g = Graph::new(2, 2);
        g.add_edge(0, 0, 5);
        g.add_edge(1, 1, 3);
        let mut p = DeltaPlanner::new(Instance::new(g, 2, 1));
        let tr = p
            .schedule
            .steps
            .iter_mut()
            .flat_map(|s| s.transfers.iter_mut())
            .find(|t| p.inst.graph.left_of(t.edge) == 0)
            .unwrap();
        if up {
            tr.amount += 1;
        } else {
            tr.amount -= 1;
        }
        p
    }

    #[test]
    #[should_panic(expected = "delivery mismatch: 0 ticks under, 1 ticks over")]
    fn over_delivered_cell_panics() {
        tampered(true).assert_delivers();
    }

    #[test]
    #[should_panic(expected = "delivery mismatch: 1 ticks under, 0 ticks over")]
    fn under_delivered_cell_panics() {
        tampered(false).assert_delivers();
    }

    #[test]
    #[should_panic(expected = "infeasible schedule")]
    fn tampered_cell_fails_the_full_invariant() {
        // Without parallel edges the coverage check of `validate` sees a
        // wrong cell first.
        tampered(false).assert_invariant();
    }

    #[test]
    fn untampered_schedule_passes_the_invariant() {
        let mut p = tampered(true);
        p.schedule = oggp(&p.inst);
        p.assert_invariant();
    }

    #[test]
    #[should_panic(expected = "parallel edge")]
    fn parallel_edges_rejected_at_open() {
        let mut g = Graph::new(1, 1);
        g.add_edge(0, 0, 2);
        g.add_edge(0, 0, 3);
        DeltaPlanner::new(Instance::new(g, 1, 1));
    }
}
