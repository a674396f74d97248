//! Hierarchical block-decomposed planning — sub-quadratic scheduling for
//! large instances.
//!
//! GGP/OGGP peel perfect matchings over the *whole* bipartite instance:
//! quadratic-plus work that tops out around a few dozen nodes. The
//! hierarchical planner trades a bounded amount of schedule quality for
//! asymptotics, following the Dynamic Hierarchical Birkhoff–von-Neumann
//! decomposition recipe: decompose the traffic matrix at block granularity,
//! recurse inside blocks, and compose. Concretely:
//!
//! 1. **Partition** (`hier_partition`): group the `n1` senders and `n2`
//!    receivers into `b` blocks each with
//!    [`bipartite::partition_affinity`] — a cheap, deterministic affinity
//!    clustering that relabels nodes so blocks capture most of the traffic
//!    (the COSTA pre-pass, at block granularity).
//! 2. **Coarse plan**: build the `b × b` block-level instance (one edge per
//!    active block pair, weight = the pair's total traffic, scaled into a
//!    small range) and schedule it with [`oggp()`](crate::oggp::oggp). Each
//!    coarse step is a matching of blocks; the step at which a block pair
//!    *first* appears assigns it to a macro-step of mutually node-disjoint
//!    pairs.
//! 3. **Block plans** (`hier_block_plans`): a macro-step is cut into
//!    chunks of at most `k` pairs, and each chunk's `k` channels are
//!    shared in proportion to the pairs' traffic (`share_k`: one channel
//!    each, the rest by largest remainder). Every active pair's
//!    sub-instance (its nodes and edges only, under its share) is planned
//!    independently with OGGP — the flat-CSR `MatchingEngine` runs per
//!    block, on instances of block size rather than `n`. A pair with one
//!    channel needs no planner: its edges, whole, one per step, cost
//!    `P + β·m`, the lower bound at `k = 1`, so it is sent heaviest edge
//!    first (which keeps the step-by-step zip of phase 4 aligned across
//!    the chunk). The plans fan out over
//!    [`crate::batch::parallel_map`] on `HierConfig::jobs` workers
//!    (every core by default, the caller included), largest pair first;
//!    each worker builds the sub-instance it plans, and each schedule is
//!    put back by its composition index, so the output does not depend
//!    on `jobs`.
//! 4. **Compose** (`hier_compose`): within a macro-step the active pairs
//!    touch disjoint node sets, so their sub-schedules zip together step
//!    by step — the union of matchings over disjoint blocks is a matching,
//!    and the width budget `Σ k_pair = k` holds by construction. Macro-steps
//!    are emitted in coarse-schedule order.
//!
//! The composed schedule is a feasible K-PBS solution for the original
//! instance ([`crate::validate`] accepts it; the differential proptests in
//! `tests/hier.rs` pin that plus exact delivery). With `blocks = 1` the
//! pipeline degenerates to flat OGGP and reproduces its schedule
//! byte-for-byte (the one-channel rule applies only with more than one
//! block, so `k = 1` keeps OGGP's tie order there too). The price of
//! hierarchy is cost, not correctness: blocks cannot share steps across
//! macro-step boundaries, so the evaluation ratio rises —
//! `BENCH_quality.json` pins the ratio paid and `BENCH_scale.json` the
//! planning time bought.

use crate::batch::parallel_map;
use crate::oggp::oggp;
use crate::problem::Instance;
use crate::schedule::{Schedule, Step, Transfer};
use bipartite::{partition_affinity, Bipartition, EdgeId, Graph, Weight};
use std::sync::OnceLock;
use telemetry::counters::{self, Counter};

/// Coarse edge weights are scaled into `1..=COARSE_SCALE` so the coarse
/// OGGP peels by traffic magnitude (heavy pairs grouped with heavy pairs)
/// without inheriting the raw tick sums, which would make the coarse
/// peeling itself expensive.
const COARSE_SCALE: Weight = 8;

/// Affinity-refinement sweeps of the partition pass.
const SWEEPS: usize = 2;

/// Configuration of the hierarchical planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierConfig {
    /// Number of blocks per side (clamped to `min(n1, n2)`; `1` reproduces
    /// flat OGGP byte-for-byte; `0` picks [`default_blocks`] of the larger
    /// side of each instance planned).
    pub blocks: usize,
    /// Workers for the per-block planning fan-out, the calling thread
    /// included. The composed schedule, the report and the work counted on
    /// the calling thread are identical for every value (see
    /// [`crate::batch`]).
    pub jobs: usize,
}

impl HierConfig {
    /// A config with `blocks` blocks (`0`: sized per instance) and block
    /// planning on every available core
    /// ([`std::thread::available_parallelism`]). Called inside another
    /// [`crate::batch`] fan-out, the block plans run inline instead.
    pub fn new(blocks: usize) -> Self {
        HierConfig {
            blocks,
            jobs: available_jobs(),
        }
    }

    /// Overrides the worker count for block planning (`1` plans every
    /// block on the calling thread).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }
}

/// The cores this process may run on, read once: the query can cost a few
/// file reads (cgroup quotas), and configs are built per plan.
fn available_jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The block count [`hier`] picks for an `n × n` instance when
/// [`HierConfig::blocks`] is `0`: `⌈√n⌉`
/// balances coarse work (`b²`) against block work (`(n/b)²` per block),
/// clamped to `[1, 64]` so the coarse instance itself stays small.
pub fn default_blocks(n: usize) -> usize {
    ((n as f64).sqrt().ceil() as usize).clamp(1, 64)
}

/// What the hierarchical planner did, alongside the schedule itself.
#[derive(Debug, Clone)]
pub struct HierReport {
    /// The composed schedule.
    pub schedule: Schedule,
    /// Blocks per side actually used (after clamping).
    pub blocks: usize,
    /// Block pairs with non-zero traffic (each planned independently).
    pub active_pairs: usize,
    /// Macro-steps the coarse OGGP plan grouped the pairs into.
    pub macro_steps: usize,
    /// Fraction of the total traffic captured on the block diagonal by the
    /// partition (diagnostic; 1.0 means perfectly clustered).
    pub diagonal_fraction: f64,
}

/// Schedules `inst` hierarchically; see the module docs for the pipeline.
pub fn hier(inst: &Instance, cfg: &HierConfig) -> Schedule {
    hier_report(inst, cfg).schedule
}

/// [`hier`], returning the decomposition diagnostics too.
pub fn hier_report(inst: &Instance, cfg: &HierConfig) -> HierReport {
    let _s = telemetry::span("kpbs.hier");
    let blocks = match cfg.blocks {
        0 => default_blocks(inst.graph.left_count().max(inst.graph.right_count())),
        b => b,
    };
    if inst.is_trivial() {
        return HierReport {
            schedule: Schedule::new(inst.beta),
            blocks,
            active_pairs: 0,
            macro_steps: 0,
            diagonal_fraction: 1.0,
        };
    }

    // Phase 1: block partition.
    let part = {
        let _s = telemetry::span("kpbs.hier_partition");
        partition_affinity(&inst.graph, blocks, SWEEPS)
    };
    let b = part.blocks;

    // Group the instance's edges by block pair, in edge-id order. Pair
    // indices are assigned in first-appearance order, which is
    // deterministic for a given graph and partition.
    let mut pair_index: Vec<usize> = vec![usize::MAX; b * b];
    let mut pairs: Vec<PairBuild> = Vec::new();
    for (e, l, r, w) in inst.graph.edges() {
        let key = part.left_block[l] * b + part.right_block[r];
        let p = if pair_index[key] == usize::MAX {
            pair_index[key] = pairs.len();
            pairs.push(PairBuild {
                left_block: part.left_block[l],
                right_block: part.right_block[r],
                edges: Vec::new(),
                total: 0,
            });
            pairs.len() - 1
        } else {
            pair_index[key]
        };
        pairs[p].edges.push(e);
        pairs[p].total += w;
    }

    // Phase 2: coarse plan over the block matrix. Coarse edge id == pair
    // index; a pair joins the macro-step where it first appears (later
    // slices of a preempted coarse edge are no-ops — within one coarse
    // step the first-appearing pairs are a subset of a block matching,
    // hence node-disjoint).
    let macro_groups: Vec<Vec<usize>> = {
        let _s = telemetry::span("kpbs.hier_coarse");
        coarse_groups(b, &pairs)
    };

    // Phase 3: per-pair sub-instances, k shared by traffic across the pairs
    // of a macro-step (chunked so every pair still gets at least one
    // channel).
    let k = inst.effective_k();
    let node_maps = NodeMaps::build(&part, inst.graph.left_count(), inst.graph.right_count());
    let mut chunks: Vec<Vec<usize>> = Vec::new();
    for group in &macro_groups {
        for chunk in group.chunks(k) {
            chunks.push(chunk.to_vec());
        }
    }
    let sub_schedules: Vec<Schedule> = {
        let _s = telemetry::span("kpbs.hier_block_plans");
        // One (pair, k_pair) job per sub-plan, in composition order.
        let jobs: Vec<(usize, usize)> = chunks
            .iter()
            .flat_map(|chunk| {
                let totals: Vec<Weight> = chunk.iter().map(|&p| pairs[p].total).collect();
                chunk.iter().copied().zip(share_k(k, &totals))
            })
            .collect();
        counters::add(Counter::HierBlockPlans, jobs.len() as u64);
        // Hand the jobs out largest pair first so the fan-out's tail is
        // short; each worker builds its own sub-instance, so only the ones
        // in flight are alive. Results go back by job index.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&j| std::cmp::Reverse(pairs[jobs[j].0].edges.len()));
        let mut planned = parallel_map(&order, cfg.jobs, |&j| {
            let (p, k_pair) = jobs[j];
            let schedule = if k_pair == 1 && b > 1 {
                one_channel(inst, &pairs[p])
            } else {
                oggp(&sub_instance(inst, &pairs[p], &node_maps, k_pair))
            };
            (j, schedule)
        });
        planned.sort_unstable_by_key(|&(j, _)| j);
        planned.into_iter().map(|(_, s)| s).collect()
    };

    // Phase 4: compose. Pairs of one chunk are node-disjoint, so zipping
    // their sub-schedules step-by-step keeps every composed step a
    // matching; the chunk's shares sum to k, so widths stay within k.
    let _s = telemetry::span("kpbs.hier_compose");
    let mut out = Schedule::new(inst.beta);
    let mut cursor = 0usize;
    for chunk in &chunks {
        let subs = &sub_schedules[cursor..cursor + chunk.len()];
        let longest = subs.iter().map(|s| s.steps.len()).max().unwrap_or(0);
        for j in 0..longest {
            let mut step = Step::default();
            for (slot, sub) in subs.iter().enumerate() {
                let Some(sub_step) = sub.steps.get(j) else {
                    continue;
                };
                let back = &pairs[chunk[slot]].edges;
                step.transfers
                    .extend(sub_step.transfers.iter().map(|t| Transfer {
                        edge: back[t.edge.index()],
                        amount: t.amount,
                    }));
            }
            if !step.transfers.is_empty() {
                out.steps.push(step);
            }
        }
        cursor += chunk.len();
    }
    counters::add(Counter::HierComposeSteps, out.steps.len() as u64);

    let total: Weight = pairs.iter().map(|p| p.total).sum();
    let diagonal_fraction = if total == 0 {
        1.0
    } else {
        part.diagonal_weight(&inst.graph) as f64 / total as f64
    };
    debug_assert!(out.validate(inst).is_ok());
    HierReport {
        schedule: out,
        blocks: b,
        active_pairs: pairs.len(),
        macro_steps: macro_groups.len(),
        diagonal_fraction,
    }
}

/// A block pair under construction: its edges (in instance edge-id order —
/// the local→original back-mapping of the sub-instance) and total traffic.
struct PairBuild {
    left_block: usize,
    right_block: usize,
    edges: Vec<EdgeId>,
    total: Weight,
}

/// Splits `k` channels across the pairs of one chunk in proportion to
/// their traffic `totals`: every pair gets one channel, and the `k − c`
/// spare channels go by largest remainder, ties to the earlier position.
/// The shares sum to exactly `k`, and a heavier pair never gets fewer
/// channels than a lighter one. Products are taken in `u128`, so totals up
/// to `u64::MAX` cannot overflow.
fn share_k(k: usize, totals: &[Weight]) -> Vec<usize> {
    let c = totals.len();
    debug_assert!((1..=k).contains(&c), "a chunk holds 1..=k pairs");
    let spare = (k - c) as u128;
    // Edge weights are positive, so every total is.
    let sum: u128 = totals.iter().map(|&t| u128::from(t)).sum();
    let mut shares = vec![1usize; c];
    if spare == 0 {
        return shares;
    }
    let mut remainders = Vec::with_capacity(c);
    let mut given = 0u128;
    for (share, &t) in shares.iter_mut().zip(totals) {
        let quota = spare * u128::from(t);
        *share += (quota / sum) as usize;
        given += quota / sum;
        remainders.push(quota % sum);
    }
    // Fewer than `c` channels are left: at most one more per pair. The
    // stable sort keeps equal remainders in chunk order.
    let mut order: Vec<usize> = (0..c).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(remainders[i]));
    for &i in &order[..(spare - given) as usize] {
        shares[i] += 1;
    }
    shares
}

/// The schedule of a pair with one channel, in the pair's local edge ids:
/// every edge whole, one per step, heaviest first, ties by local id. It
/// costs `P + β·m`, the lower bound at `k = 1`, so no planner can do
/// better; heaviest first lines its long steps up with the other pairs'
/// long first steps when phase 4 zips the chunk.
fn one_channel(inst: &Instance, pair: &PairBuild) -> Schedule {
    let mut order: Vec<(Weight, usize)> = pair
        .edges
        .iter()
        .enumerate()
        .map(|(i, &e)| (inst.graph.weight(e), i))
        .collect();
    order.sort_by_key(|&(w, _)| std::cmp::Reverse(w));
    let mut schedule = Schedule::new(inst.beta);
    schedule.steps = order
        .into_iter()
        .map(|(amount, i)| Step {
            transfers: vec![Transfer {
                edge: EdgeId(i as u32),
                amount,
            }],
        })
        .collect();
    schedule
}

/// Per-side local node numbering: original node → rank within its block.
struct NodeMaps {
    left_local: Vec<usize>,
    left_size: Vec<usize>,
    right_local: Vec<usize>,
    right_size: Vec<usize>,
}

impl NodeMaps {
    fn build(part: &Bipartition, n1: usize, n2: usize) -> NodeMaps {
        let (left_local, left_size) = side_ranks(&part.left_block, part.blocks, n1);
        let (right_local, right_size) = side_ranks(&part.right_block, part.blocks, n2);
        NodeMaps {
            left_local,
            left_size,
            right_local,
            right_size,
        }
    }
}

/// Ranks each node within its block (ascending node order) and counts the
/// block sizes.
fn side_ranks(block_of: &[usize], blocks: usize, n: usize) -> (Vec<usize>, Vec<usize>) {
    let mut size = vec![0usize; blocks];
    let mut local = vec![0usize; n];
    for (node, &blk) in block_of.iter().enumerate() {
        local[node] = size[blk];
        size[blk] += 1;
    }
    (local, size)
}

/// Builds the sub-instance of one block pair: the pair's nodes renumbered
/// locally, its edges added in instance edge-id order (so local edge id
/// `i` corresponds to `pair.edges[i]`), the shared β and the pair's `k`.
fn sub_instance(inst: &Instance, pair: &PairBuild, maps: &NodeMaps, k_pair: usize) -> Instance {
    let mut g = Graph::new(
        maps.left_size[pair.left_block],
        maps.right_size[pair.right_block],
    );
    for &e in &pair.edges {
        g.add_edge(
            maps.left_local[inst.graph.left_of(e)],
            maps.right_local[inst.graph.right_of(e)],
            inst.graph.weight(e),
        );
    }
    Instance::new(g, k_pair, inst.beta)
}

/// Plans the coarse block-level instance with OGGP and groups the active
/// pairs into macro-steps by first appearance.
fn coarse_groups(b: usize, pairs: &[PairBuild]) -> Vec<Vec<usize>> {
    if pairs.is_empty() {
        return Vec::new();
    }
    let max_total = pairs.iter().map(|p| p.total).max().unwrap_or(1).max(1);
    let mut coarse = Graph::new(b, b);
    for p in pairs {
        // Scale totals into 1..=COARSE_SCALE; coarse edge id == pair index.
        let w = 1 + p.total * (COARSE_SCALE - 1) / max_total;
        coarse.add_edge(p.left_block, p.right_block, w);
    }
    let coarse_inst = Instance::new(coarse, b, 1);
    let coarse_schedule = oggp(&coarse_inst);
    debug_assert!(coarse_schedule.validate(&coarse_inst).is_ok());

    let mut seen = vec![false; pairs.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for step in &coarse_schedule.steps {
        let mut group: Vec<usize> = Vec::new();
        for t in &step.transfers {
            let p = t.edge.index();
            if !seen[p] {
                seen[p] = true;
                group.push(p);
            }
        }
        if !group.is_empty() {
            groups.push(group);
        }
    }
    // Defensive: OGGP covers every coarse edge, so nothing should be left;
    // if anything ever were, singleton groups keep the schedule valid.
    for (p, s) in seen.iter().enumerate() {
        if !s {
            groups.push(vec![p]);
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances;
    use crate::lower_bound::lower_bound;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn trivial_instance_empty_schedule() {
        let inst = Instance::new(Graph::new(4, 4), 2, 1);
        let r = hier_report(&inst, &HierConfig::new(2));
        assert_eq!(r.schedule.num_steps(), 0);
        assert_eq!(r.active_pairs, 0);
    }

    #[test]
    fn blocks_one_is_flat_oggp() {
        let mut rng = SmallRng::seed_from_u64(9);
        let inst = instances::sparse_uniform(&mut rng, 20, 4, 50, 8, 2);
        let flat = oggp(&inst);
        let h = hier(&inst, &HierConfig::new(1));
        assert_eq!(h, flat, "blocks=1 must reproduce flat OGGP");
    }

    #[test]
    fn valid_on_clustered_instances() {
        let mut rng = SmallRng::seed_from_u64(21);
        for n in [16usize, 32, 48] {
            let inst = instances::sparse_clustered(&mut rng, n, 4, 5, 0.1, 100, n / 4, 1);
            for blocks in [2usize, 4, 7] {
                let r = hier_report(&inst, &HierConfig::new(blocks));
                r.schedule
                    .validate(&inst)
                    .unwrap_or_else(|e| panic!("n={n} b={blocks}: {e}"));
                assert!(r.schedule.cost() >= lower_bound(&inst));
                assert!(r.blocks <= blocks);
                assert!(r.active_pairs >= 1);
            }
        }
    }

    #[test]
    fn jobs_invariant_schedules() {
        let _guard = crate::testutil::COUNTER_LOCK.lock().unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let inst = instances::sparse_clustered(&mut rng, 32, 4, 6, 0.2, 80, 8, 1);
        counters::enable();
        let run = |cfg: HierConfig| {
            let before = counters::local_snapshot();
            let r = hier_report(&inst, &cfg);
            (r, counters::local_snapshot().delta(&before))
        };
        let (base, base_work) = run(HierConfig::new(4).with_jobs(1));
        let others: Vec<_> = [
            ("jobs=2", HierConfig::new(4).with_jobs(2)),
            ("jobs=8", HierConfig::new(4).with_jobs(8)),
            ("default jobs", HierConfig::new(4)),
        ]
        .into_iter()
        .map(|(label, cfg)| (label, run(cfg)))
        .collect();
        counters::disable();
        assert!(base.active_pairs > 1, "the fan-out must have work to split");
        assert!(base_work.get(Counter::Peels) > 0);
        for (label, (r, work)) in others {
            assert_eq!(r.schedule, base.schedule, "{label} changed the schedule");
            assert_eq!(r.blocks, base.blocks, "{label}");
            assert_eq!(r.active_pairs, base.active_pairs, "{label}");
            assert_eq!(r.macro_steps, base.macro_steps, "{label}");
            assert_eq!(
                r.diagonal_fraction.to_bits(),
                base.diagonal_fraction.to_bits(),
                "{label}"
            );
            assert_eq!(work, base_work, "{label} moved the caller's counters");
        }
    }

    #[test]
    fn default_jobs_use_every_core() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(HierConfig::new(3).jobs, cores);
        assert_eq!(HierConfig::new(3).with_jobs(0).jobs, 1);
    }

    #[test]
    fn width_respects_k() {
        let mut rng = SmallRng::seed_from_u64(3);
        // k = 3 smaller than the number of blocks: chunking must keep every
        // composed step within the backbone budget.
        let inst = instances::sparse_uniform(&mut rng, 24, 5, 30, 3, 1);
        let s = hier(&inst, &HierConfig::new(6));
        s.validate(&inst).unwrap();
        assert!(s.max_width() <= 3);
    }

    #[test]
    fn shares_follow_traffic_and_sum_to_k() {
        let cases: [(usize, &[Weight]); 6] = [
            (32, &[1, 1, 1]),
            (32, &[900, 50, 50, 1]),
            (8, &[3, 5, 3, 5, 3, 5, 3, 5]),
            (7, &[u64::MAX, u64::MAX - 1, 1]),
            (5, &[10]),
            (100, &[7, 1, 2, 9, 9, 3]),
        ];
        for (k, totals) in cases {
            let shares = share_k(k, totals);
            assert_eq!(shares.iter().sum::<usize>(), k, "{totals:?}");
            assert!(shares.iter().all(|&s| s >= 1), "{shares:?}");
            for (a, &ta) in totals.iter().enumerate() {
                for (b, &tb) in totals.iter().enumerate() {
                    if ta > tb {
                        assert!(shares[a] >= shares[b], "{totals:?} -> {shares:?}");
                    }
                }
            }
        }
        // Proportional: 28 spare channels split 900 : 50 : 50 : 1, the last
        // one to the larger remainder that comes first.
        assert_eq!(share_k(32, &[900, 50, 50, 1]), [26, 3, 2, 1]);
        // Equal remainders go to the earlier pair.
        assert_eq!(share_k(5, &[1, 1, 1]), [2, 2, 1]);
    }

    #[test]
    fn one_channel_pairs_are_sent_heaviest_first() {
        let mut g = Graph::new(6, 6);
        for (l, r, w) in [
            (0, 0, 4),
            (1, 1, 9),
            (2, 2, 4),
            (3, 3, 1),
            (4, 4, 2),
            (5, 5, 8),
        ] {
            g.add_edge(l, r, w);
        }
        let inst = Instance::new(g, 1, 3);
        let pair = PairBuild {
            left_block: 0,
            right_block: 0,
            edges: vec![EdgeId(0), EdgeId(1), EdgeId(2), EdgeId(3)],
            total: 18,
        };
        let sent: Vec<(usize, Weight)> = one_channel(&inst, &pair)
            .steps
            .iter()
            .map(|s| {
                assert_eq!(s.transfers.len(), 1);
                (s.transfers[0].edge.index(), s.transfers[0].amount)
            })
            .collect();
        assert_eq!(sent, [(1, 9), (0, 4), (2, 4), (3, 1)], "ties by local id");
        // k = 1 with several blocks: every pair goes this way, and the
        // composed schedule attains the lower bound P + β·m.
        let r = hier_report(&inst, &HierConfig::new(3));
        assert!(r.blocks > 1 && r.active_pairs > 1);
        assert_eq!(r.schedule.cost(), lower_bound(&inst));
    }

    #[test]
    fn default_blocks_scales_as_sqrt() {
        assert_eq!(default_blocks(1), 1);
        assert_eq!(default_blocks(16), 4);
        assert_eq!(default_blocks(256), 16);
        assert_eq!(default_blocks(1024), 32);
        assert_eq!(default_blocks(4096), 64);
        assert_eq!(default_blocks(1 << 20), 64, "clamped");
    }

    #[test]
    fn zero_blocks_sizes_from_the_larger_side() {
        let mut rng = SmallRng::seed_from_u64(13);
        let inst = instances::sparse_uniform(&mut rng, 30, 5, 60, 4, 1);
        let n = inst.graph.left_count().max(inst.graph.right_count());
        let auto = hier_report(&inst, &HierConfig::new(0));
        let explicit = hier_report(&inst, &HierConfig::new(default_blocks(n)));
        assert_eq!(auto.blocks, explicit.blocks);
        assert_eq!(auto.schedule, explicit.schedule);
        let empty = hier_report(&Instance::new(Graph::new(0, 0), 1, 0), &HierConfig::new(0));
        assert_eq!(empty.blocks, 1);
    }

    #[test]
    fn diagonal_fraction_high_on_block_diagonal_traffic() {
        let mut rng = SmallRng::seed_from_u64(77);
        let inst = instances::sparse_clustered(&mut rng, 32, 4, 6, 0.0, 100, 8, 1);
        let r = hier_report(&inst, &HierConfig::new(4));
        // Clusters are mod-interleaved, so the contiguous seeding starts
        // fully misaligned; the greedy sweeps won't always reach the perfect
        // partition, but they must land far above the 1/b = 0.25 random
        // baseline.
        assert!(
            r.diagonal_fraction > 0.5,
            "block-diagonal traffic poorly captured: {}",
            r.diagonal_fraction
        );
    }
}
