//! β-normalisation (GGP step 1, Section 4.2.1).
//!
//! GGP refuses to split communications shorter than β, by expressing all
//! weights in units of β rounded *up*: `w' = ⌈w/β⌉`. The peeling then works
//! on integers ≥ 1, so no step is ever shorter than β in real time — setup
//! costs can never dominate the work they enable.
//!
//! After scheduling, [`denormalize`] maps the normalised schedule back to
//! real ticks. Each edge transmits `min(quantum·β, real remaining)` per step,
//! so the real cost is never larger than the normalised cost times β.

use crate::problem::Instance;
use crate::schedule::{Schedule, Step, Transfer};
use bipartite::{Graph, Weight};

/// The normalised view of an instance: its live edges with weights
/// `⌈w/unit⌉`, the unit to map back, and the parallelism to plan with.
/// `unit = β` when `β > 0`, else 1 (no normalisation — setups are free so
/// arbitrary preemption is safe).
///
/// Only nodes that carry traffic survive: left and right nodes are
/// renumbered densely, in index order, over the endpoints of live edges, so
/// an isolated sender or receiver never reaches the weight-regular graph
/// (where it would otherwise be raised to weight `R` with pad edges of its
/// own). Edge ids are unchanged, which is all the later stages look at.
#[derive(Debug, Clone)]
pub struct Normalized {
    /// Graph with normalised weights over the traffic-carrying nodes. Edge
    /// ids coincide with the original's; node indices do not.
    pub graph: Graph,
    /// Number of real ticks per normalised weight unit.
    pub unit: Weight,
    /// The parallelism to regularise for: [`Instance::effective_k`] clamped
    /// to the live nodes of each side (at least 1), so `k ≤ side` holds for
    /// [`crate::regularize::regularize`].
    pub k: usize,
}

/// Normalises an instance's graph.
pub fn normalize(inst: &Instance) -> Normalized {
    let unit = if inst.beta > 0 { inst.beta } else { 1 };
    let src = &inst.graph;
    let (left, n1) = dense_ranks(src.left_count(), |l| src.degree_left(l) > 0);
    let (right, n2) = dense_ranks(src.right_count(), |r| src.degree_right(r) > 0);
    let k = inst.effective_k().min(n1).min(n2).max(1);
    let mut graph = Graph::new(n1, n2);
    // Preserve edge ids: iterate ids in order, reproducing tombstones.
    let max_id = src.edge_ids().map(|e| e.index() + 1).max().unwrap_or(0);
    for idx in 0..max_id {
        let e = bipartite::EdgeId(idx as u32);
        if src.is_alive(e) {
            let w = src.weight(e).div_ceil(unit);
            let id = graph.add_edge(left[src.left_of(e)], right[src.right_of(e)], w.max(1));
            debug_assert_eq!(id, e);
        } else {
            // Keep id numbering aligned with the original graph.
            let id = graph.add_edge(0, 0, 1);
            graph.remove_edge(id);
        }
    }
    Normalized { graph, unit, k }
}

/// Numbers the nodes `0..n` for which `live` holds densely, in index order:
/// returns each node's new index (meaningful for live nodes only) and the
/// live count.
fn dense_ranks(n: usize, live: impl Fn(usize) -> bool) -> (Vec<usize>, usize) {
    let mut count = 0;
    let ranks = (0..n)
        .map(|v| {
            let rank = count;
            count += usize::from(live(v));
            rank
        })
        .collect();
    (ranks, count)
}

/// Maps a schedule over normalised weights back to real ticks.
///
/// Walks the steps in order, tracking each edge's real remaining duration;
/// every normalised quantum `q` becomes `min(q·unit, remaining)` real ticks.
/// Steps whose every slice collapses to zero are dropped (cannot happen for
/// schedules produced by the peeling algorithms, but tolerated here).
pub fn denormalize(normalised: &Schedule, inst: &Instance) -> Schedule {
    let unit = if inst.beta > 0 { inst.beta } else { 1 };
    if unit == 1 {
        // Weights were not scaled; only restore the instance's real β
        // (the normalised schedule accounts setups in units of β).
        let mut out = normalised.clone();
        out.beta = inst.beta;
        return out;
    }
    let max_id = inst
        .graph
        .edge_ids()
        .map(|e| e.index() + 1)
        .max()
        .unwrap_or(0);
    let mut remaining: Vec<Weight> = vec![0; max_id];
    for e in inst.graph.edge_ids() {
        remaining[e.index()] = inst.graph.weight(e);
    }

    let mut out = Schedule::new(inst.beta);
    for step in &normalised.steps {
        let mut real = Step::default();
        for t in &step.transfers {
            let rem = &mut remaining[t.edge.index()];
            let amount = (t.amount * unit).min(*rem);
            if amount > 0 {
                *rem -= amount;
                real.transfers.push(Transfer {
                    edge: t.edge,
                    amount,
                });
            }
        }
        if !real.transfers.is_empty() {
            out.steps.push(real);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bipartite::EdgeId;

    fn instance(weights: &[Weight], beta: Weight) -> Instance {
        let n = weights.len();
        let mut g = Graph::new(n, n);
        for (i, &w) in weights.iter().enumerate() {
            g.add_edge(i, i, w);
        }
        Instance::new(g, n.max(1), beta)
    }

    #[test]
    fn beta_zero_is_identity() {
        let inst = instance(&[5, 7], 0);
        let n = normalize(&inst);
        assert_eq!(n.unit, 1);
        assert_eq!(n.graph.weight(EdgeId(0)), 5);
        assert_eq!(n.graph.weight(EdgeId(1)), 7);
    }

    #[test]
    fn rounding_up() {
        let inst = instance(&[5, 6, 1], 3);
        let n = normalize(&inst);
        assert_eq!(n.unit, 3);
        assert_eq!(n.graph.weight(EdgeId(0)), 2); // ceil(5/3)
        assert_eq!(n.graph.weight(EdgeId(1)), 2); // ceil(6/3)
        assert_eq!(n.graph.weight(EdgeId(2)), 1); // ceil(1/3), never 0
    }

    #[test]
    fn edge_ids_preserved_with_tombstones() {
        let mut g = Graph::new(2, 2);
        let e0 = g.add_edge(0, 0, 4);
        let e1 = g.add_edge(1, 1, 9);
        g.remove_edge(e0);
        let inst = Instance::new(g, 2, 2);
        let n = normalize(&inst);
        assert!(!n.graph.is_alive(e0));
        assert_eq!(n.graph.weight(e1), 5);
        assert_eq!(n.graph.edge_count(), 1);
    }

    #[test]
    fn denormalize_caps_at_real_remaining() {
        // Edge weighs 5 real ticks, β = 2 → normalised weight 3.
        let inst = instance(&[5], 2);
        let norm_schedule = Schedule {
            steps: vec![
                Step {
                    transfers: vec![Transfer {
                        edge: EdgeId(0),
                        amount: 2,
                    }],
                },
                Step {
                    transfers: vec![Transfer {
                        edge: EdgeId(0),
                        amount: 1,
                    }],
                },
            ],
            beta: 1,
        };
        let real = denormalize(&norm_schedule, &inst);
        // First step: min(2·2, 5) = 4 ticks; second: min(1·2, 1) = 1 tick.
        assert_eq!(real.steps[0].transfers[0].amount, 4);
        assert_eq!(real.steps[1].transfers[0].amount, 1);
        assert!(real.validate(&inst).is_ok());
    }

    #[test]
    fn denormalized_cost_at_most_normalized_times_unit() {
        let inst = instance(&[5, 7, 2], 3);
        // Normalised weights: 2, 3, 1. One big parallel step then leftovers.
        let norm = Schedule {
            steps: vec![
                Step {
                    transfers: vec![
                        Transfer {
                            edge: EdgeId(0),
                            amount: 2,
                        },
                        Transfer {
                            edge: EdgeId(1),
                            amount: 2,
                        },
                        Transfer {
                            edge: EdgeId(2),
                            amount: 1,
                        },
                    ],
                },
                Step {
                    transfers: vec![Transfer {
                        edge: EdgeId(1),
                        amount: 1,
                    }],
                },
            ],
            beta: 1,
        };
        let real = denormalize(&norm, &inst);
        assert!(real.validate(&inst).is_ok());
        // Normalised cost in units of β: (1+2) + (1+1) = 5 → ≤ 15 real.
        assert!(real.cost() <= 5 * 3);
    }
}
