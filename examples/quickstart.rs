//! Quickstart: schedule a redistribution between two small clusters and
//! inspect the result.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use redistribute::kpbs::{Topology, TrafficMatrix};
use redistribute::{Algo, Planner};

fn main() {
    // Two clusters of 4 nodes each, 100 Mbit/s NICs, a 200 Mbit/s backbone:
    // at most k = 2 simultaneous transfers avoid congestion.
    let topo = Topology::two_cluster(4, 4, 100.0, 100.0, 200.0);
    println!(
        "platform: {}x{} nodes, t = 100 Mbit/s, k = {}",
        topo.senders(),
        topo.receivers(),
        topo.link_k(0)
    );

    // The application's redistribution pattern, in bytes.
    let mut traffic = TrafficMatrix::zeros(4, 4);
    traffic.set(0, 0, 25_000_000);
    traffic.set(0, 2, 10_000_000);
    traffic.set(1, 1, 40_000_000);
    traffic.set(2, 3, 15_000_000);
    traffic.set(3, 0, 5_000_000);
    traffic.set(3, 3, 20_000_000);
    println!(
        "traffic: {} messages, {:.1} MB total",
        traffic.message_count(),
        traffic.total_bytes() as f64 / 1e6
    );

    for algo in [Algo::Oggp, Algo::Ggp, Algo::Sequential] {
        // `plan_topology` validates every schedule it returns.
        let plan = Planner::new(algo)
            .plan(&traffic, &topo)
            .expect("every pair of the two clusters is routable");
        println!(
            "{:>10?}: {:>2} steps, cost {:>6.2} s, lower bound {:>6.2} s, ratio {:.4}",
            algo,
            plan.topo_plan.schedule.num_steps(),
            plan.cost_seconds(),
            plan.lower_bound_seconds(),
            plan.evaluation_ratio()
        );
    }

    // Show the OGGP schedule step by step.
    let plan = Planner::new(Algo::Oggp).plan(&traffic, &topo).unwrap();
    println!("\nOGGP schedule (β = {} s):", plan.beta_seconds);
    for (i, step) in plan.topo_plan.schedule.steps.iter().enumerate() {
        let slices: Vec<String> = step
            .transfers
            .iter()
            .map(|t| {
                let (s, d) = plan.topo_plan.endpoints[t.edge.index()];
                format!("{s}->{d} ({:.2}s)", plan.scale.to_seconds(t.amount))
            })
            .collect();
        println!(
            "  step {:>2}: duration {:>6.2} s | {}",
            i,
            plan.scale.to_seconds(step.duration()),
            slices.join(", ")
        );
    }

    println!("\nGantt ('#' transmitting, '.' idle within the step):");
    print!("{}", plan.topo_plan.schedule.gantt(60));

    // And simulate it on the platform's network.
    let report = plan.simulate_ideal();
    let steps = report.steps.len();
    println!(
        "\nsimulated execution: {:.2} s across {steps} steps ({:.2} s of barriers)",
        report.total_seconds,
        plan.beta_seconds * steps as f64
    );
}
