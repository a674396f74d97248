//! Figure 2 of the paper: the worked K-PBS example. The figure (an image in
//! the paper, so the exact edge set is reconstructed here) shows a solution
//! with k = 3 in 3 steps of durations 5, 3 and 4; with β = 1 the total cost
//! is (1+5) + (1+3) + (1+4) = 15, and preemption decomposes the weight-8
//! edge into two slices of 4.
//!
//! The graph below admits exactly that solution. The paper notes such a
//! hand schedule "may not be optimal" — the exact solver indeed finds a
//! cheaper one — and GGP/OGGP must stay within twice the optimum.
//!
//! ```sh
//! cargo run --release -p bench --bin fig02_example
//! ```

use bipartite::Graph;
use kpbs::schedule::{Schedule, Step, Transfer};
use kpbs::{exact, ggp, lower_bound, oggp, Instance};
use telemetry::cli::Args;

fn main() {
    Args::from_env("fig02_example").finish();
    // A graph admitting the depicted solution: 3 senders, 3 receivers.
    let mut g = Graph::new(3, 3);
    let e0 = g.add_edge(0, 0, 5);
    let e1 = g.add_edge(1, 1, 8); // the preempted edge
    let e2 = g.add_edge(0, 1, 3);
    let e3 = g.add_edge(2, 0, 4);
    let e4 = g.add_edge(2, 2, 4);
    let inst = Instance::new(g, 3, 1);

    println!("Figure 2 instance (k = 3, beta = 1):");
    for (id, l, r, w) in inst.graph.edges() {
        println!("  e{}: C1 node {l} -> C2 node {r}, {w} time units", id.0);
    }

    // The paper's depicted 3-step solution, reconstructed and validated.
    let depicted = Schedule {
        steps: vec![
            Step {
                transfers: vec![
                    Transfer {
                        edge: e0,
                        amount: 5,
                    },
                    Transfer {
                        edge: e1,
                        amount: 4,
                    },
                    Transfer {
                        edge: e4,
                        amount: 4,
                    },
                ],
            },
            Step {
                transfers: vec![Transfer {
                    edge: e2,
                    amount: 3,
                }],
            },
            Step {
                transfers: vec![
                    Transfer {
                        edge: e1,
                        amount: 4,
                    },
                    Transfer {
                        edge: e3,
                        amount: 4,
                    },
                ],
            },
        ],
        beta: 1,
    };
    depicted
        .validate(&inst)
        .expect("the depicted solution must be feasible");
    println!(
        "\npaper's depicted solution: {} steps, durations {:?}, cost {}",
        depicted.num_steps(),
        depicted
            .steps
            .iter()
            .map(|s| s.duration())
            .collect::<Vec<_>>(),
        depicted.cost()
    );
    assert_eq!(depicted.cost(), 15, "matches the figure's arithmetic");

    println!("lower bound              : {}", lower_bound(&inst));
    match exact::optimal_cost(&inst, exact::Limits::default()) {
        Some(c) => println!("exact optimum            : {c}"),
        None => println!("exact optimum            : (beyond solver limits)"),
    }

    for (name, s) in [("GGP", ggp(&inst)), ("OGGP", oggp(&inst))] {
        s.validate(&inst).expect("feasible");
        println!("\n{name}: {} steps, cost {}", s.num_steps(), s.cost());
        for (i, step) in s.steps.iter().enumerate() {
            let slices: Vec<String> = step
                .transfers
                .iter()
                .map(|t| format!("e{}:{}", t.edge.0, t.amount))
                .collect();
            println!(
                "  step {i}: duration {} | {}",
                step.duration(),
                slices.join(" ")
            );
        }
    }
}
