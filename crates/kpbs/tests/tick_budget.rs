//! `kpbs::traffic::plan_ticks_fit` is the line servers draw for matrices
//! that arrive from a socket: inside it, no planner may overflow `u64`
//! ticks. `cargo test` builds with overflow checks on, so planning a few
//! thousand instances that nearly exhaust the budget — weight piled on one
//! edge or spread evenly, β absent, small, or half the budget — checks the
//! bound the function documents.

use bipartite::Graph;
use kpbs::traffic::{plan_ticks_fit, MAX_PLAN_TICKS};
use kpbs::Instance;

#[test]
fn planners_do_not_overflow_inside_the_tick_budget() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let mut planned = 0;
    for _ in 0..3000 {
        let (n1, n2) = (1 + next(5) as usize, 1 + next(5) as usize);
        let k = 1 + next(n1.min(n2) as u64) as usize;
        let cells: Vec<(usize, usize)> = (0..n1)
            .flat_map(|i| (0..n2).map(move |j| (i, j)))
            .filter(|_| next(3) > 0)
            .collect();
        let m = cells.len();
        if m == 0 {
            continue;
        }
        let terms = (m + n1 + n2 + 1) as u64;
        let cap = MAX_PLAN_TICKS / (k as u64 + 1);
        let beta = match next(3) {
            0 => 0,
            1 => next(1000),
            _ => cap / 2 / terms,
        };
        // Hand the edges, unevenly, all the weight the budget leaves.
        let mut left = cap - (beta + 1) * terms;
        let mut g = Graph::new(n1, n2);
        let mut total = 0;
        for (idx, &(i, j)) in cells.iter().enumerate() {
            let w = if idx + 1 == m {
                left
            } else {
                next(left / 2 + 1)
            }
            .max(1);
            left = left.saturating_sub(w);
            total += w;
            g.add_edge(i, j, w);
        }
        if !plan_ticks_fit(n1, n2, k, m, total, beta) {
            continue; // the `.max(1)` floors tipped it over
        }
        planned += 1;
        let inst = Instance::new(g, k, beta);
        for schedule in [kpbs::oggp(&inst), kpbs::ggp(&inst)] {
            kpbs::validate::validate(&inst, &schedule).expect("valid at the budget edge");
            assert!(schedule.cost() >= kpbs::lower_bound(&inst));
        }
    }
    assert!(planned > 2000, "only {planned} instances fit the budget");
}
