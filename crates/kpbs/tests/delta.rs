//! Differential property tests pinning [`DeltaPlanner::replan`] against
//! the stateless planners: whatever rung of the repair ladder a replan
//! lands on, the committed schedule must validate, deliver exactly the
//! post-delta matrix, and cost no more than the worse of the replan
//! ceiling and a cold OGGP plan of the same matrix — and the whole
//! process must be deterministic, because `redistd`'s loopback and load
//! tests byte-compare server schedules against client mirrors.

use bipartite::Graph;
use kpbs::delta::REPLAN_COST_FACTOR;
use kpbs::{oggp, DeltaPlanner, Instance, MatrixDelta, RepairLevel};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The raw tuple a planner instance is built from. Cells are stored
/// deduplicated and row-major so the construction is canonical (the
/// planner refuses parallel edges, and cold-fallback equality needs the
/// same edge-id labelling a `TrafficMatrix::to_instance` would produce).
#[derive(Debug, Clone)]
struct Raw {
    n1: usize,
    n2: usize,
    cells: BTreeMap<(usize, usize), u64>,
    k: usize,
    beta: u64,
}

impl Raw {
    fn build(&self) -> Instance {
        let mut g = Graph::new(self.n1, self.n2);
        for (&(l, r), &w) in &self.cells {
            g.add_edge(l, r, w);
        }
        Instance::new(g, self.k, self.beta)
    }
}

fn raw_strategy() -> impl Strategy<Value = Raw> {
    (2usize..=7, 2usize..=7)
        .prop_flat_map(|(n1, n2)| {
            let cells = proptest::collection::vec((0..n1, 0..n2, 1u64..=60), 1..=16);
            (Just((n1, n2)), cells, 1..=n1.min(n2), 0u64..=8)
        })
        .prop_map(|((n1, n2), cells, k, beta)| Raw {
            n1,
            n2,
            // Later duplicates win, like repeated `TrafficMatrix::set`s.
            cells: cells.into_iter().map(|(l, r, w)| ((l, r), w)).collect(),
            k,
            beta,
        })
}

/// Edits addressing the *initial* node range. Dims only ever grow
/// (drops clear a line without removing the node), so every index stays
/// valid however the batch is ordered. Weighted ~8:1:1:1 towards cell
/// edits, like real admission traffic.
fn delta_strategy(n1: usize, n2: usize) -> impl Strategy<Value = MatrixDelta> {
    (0u64..=10, 0..n1, 0..n2, 0u64..=60).prop_map(|(kind, sender, receiver, ticks)| match kind {
        0 => MatrixDelta::GrowNodes {
            senders: 1,
            receivers: (ticks % 2) as usize,
        },
        1 => MatrixDelta::DropSender(sender),
        2 => MatrixDelta::DropReceiver(receiver),
        _ => MatrixDelta::Set {
            sender,
            receiver,
            ticks,
        },
    })
}

fn campaign_strategy() -> impl Strategy<Value = (Raw, Vec<Vec<MatrixDelta>>)> {
    raw_strategy().prop_flat_map(|raw| {
        let batches = proptest::collection::vec(
            proptest::collection::vec(delta_strategy(raw.n1, raw.n2), 1..=5),
            1..=3,
        );
        (Just(raw), batches)
    })
}

/// A cold, canonical plan of the planner's current matrix: row-major
/// cells, fresh OGGP — what a stateless server would answer.
fn cold_reference(planner: &DeltaPlanner) -> (Instance, kpbs::Schedule) {
    let target = planner.target_matrix();
    let live = planner.instance();
    let mut g = Graph::new(live.graph.left_count(), live.graph.right_count());
    for i in 0..live.graph.left_count() {
        for j in 0..live.graph.right_count() {
            let w = target.get(i, j);
            if w > 0 {
                g.add_edge(i, j, w);
            }
        }
    }
    let inst = Instance::new(g, live.k, live.beta);
    let schedule = oggp(&inst);
    (inst, schedule)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn replan_matches_its_contract((raw, batches) in campaign_strategy()) {
        let mut planner = DeltaPlanner::new(raw.build());
        let mut twin = DeltaPlanner::new(raw.build());
        for (bi, batch) in batches.iter().enumerate() {
            let outcome = planner.replan(batch);
            prop_assert_eq!(outcome.generation, (bi + 1) as u64);

            // Feasibility: the committed schedule validates against the
            // live post-delta instance.
            kpbs::validate::validate(planner.instance(), planner.schedule())
                .map_err(|e| TestCaseError::fail(format!("batch {bi}: {e:?}")))?;

            // Exact delivery: the schedule moves precisely the post-delta
            // matrix — no cell short, no cell over.
            prop_assert_eq!(
                planner.delivered_matrix(),
                planner.target_matrix(),
                "batch {} must deliver the post-delta matrix",
                bi
            );

            // Cost: bounded by the replan ceiling or, past it, by the
            // cold plan the fallback ladder would have taken instead; and
            // never below the instance's lower bound.
            let (cold_inst, cold) = cold_reference(&planner);
            prop_assert_eq!(outcome.lower_bound, kpbs::lower_bound(&cold_inst));
            prop_assert!(outcome.cost >= outcome.lower_bound);
            let ceiling =
                (REPLAN_COST_FACTOR * outcome.lower_bound.max(1)).max(cold.cost());
            prop_assert!(
                outcome.cost <= ceiling,
                "batch {}: cost {} above ceiling {} (level {:?})",
                bi, outcome.cost, ceiling, outcome.level
            );

            // A cold fallback is indistinguishable from a stateless plan
            // of the same matrix — same edge labelling and all.
            if outcome.level == RepairLevel::Cold {
                prop_assert_eq!(planner.schedule(), &cold);
            }

            // Determinism: an independent planner fed the same history
            // commits an identical schedule — the property every mirror
            // byte-compare in the serving layer rests on.
            let twin_outcome = twin.replan(batch);
            prop_assert_eq!(outcome, twin_outcome);
            prop_assert_eq!(planner.schedule(), twin.schedule());
        }
    }

    #[test]
    fn pure_decreases_never_raise_cost(raw in raw_strategy()) {
        // Shrinking or deleting messages can only cheapen the committed
        // schedule: level-0 repair trims in place and never adds a step.
        let mut planner = DeltaPlanner::new(raw.build());
        let before = planner.schedule().cost();
        let batch: Vec<MatrixDelta> = raw
            .cells
            .iter()
            .take(3)
            .map(|(&(sender, receiver), &w)| MatrixDelta::Set {
                sender,
                receiver,
                ticks: w / 2,
            })
            .collect();
        let outcome = planner.replan(&batch);
        // No increase means no residual to re-peel: the ladder stays at
        // level 0 unless stranded slivers trip the cost ceiling.
        prop_assert_ne!(outcome.level, RepairLevel::RePeel);
        if outcome.level == RepairLevel::Repair {
            prop_assert!(outcome.cost <= before);
        }
        prop_assert_eq!(planner.delivered_matrix(), planner.target_matrix());
    }
}

/// A seeded n=32, ~40 %-dense session with a 500-round stream of 2-cell
/// `Set` batches (~60 % clears, the rest 1–960 ticks), the shape of the
/// serving benchmark's `session-delta` stream.
fn digest_session() -> (DeltaPlanner, Vec<[MatrixDelta; 2]>) {
    const N: usize = 32;
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
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
    // A re-peel budget of one cell sends every batch whose two cells both
    // outgrow their slack to the cold rung.
    let planner = DeltaPlanner::with_repeel_budget(Instance::new(g, 4, 10), 1);
    let mut set = || {
        let (sender, receiver) = ((next() % N as u64) as usize, (next() % N as u64) as usize);
        let ticks = if next() % 10 < 6 { 0 } else { 1 + next() % 960 };
        MatrixDelta::Set {
            sender,
            receiver,
            ticks,
        }
    };
    let batches = (0..500).map(|_| [set(), set()]).collect();
    (planner, batches)
}

/// FNV-1a over every round's committed schedule (edge ids, amounts and
/// step boundaries) and outcome (cost, lower bound, level): any change in
/// what the repair ladder commits, on any rung, moves the digest.
#[test]
fn replan_stream_is_byte_identical_to_its_recorded_digest() {
    let (mut planner, batches) = digest_session();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut levels = [0u32; 3];
    for batch in &batches {
        let out = planner.replan(batch);
        levels[out.level as usize] += 1;
        eat(out.cost);
        eat(out.lower_bound);
        eat(out.level as u64);
        for step in &planner.schedule().steps {
            eat(step.transfers.len() as u64);
            for t in &step.transfers {
                eat(u64::from(t.edge.0));
                eat(t.amount);
            }
        }
    }
    // Every rung is exercised, so the digest pins all three.
    assert!(levels.iter().all(|&c| c > 0), "levels {levels:?}");
    assert_eq!(levels, [441, 47, 12]);
    assert_eq!(h, 0x49a7_d300_a9c4_26c0);
}
