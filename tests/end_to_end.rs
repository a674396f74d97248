//! End-to-end integration: traffic matrix → topology → schedule →
//! execution. The analytic cost is checked against the one executor
//! (`redistexec::Runtime`) over both of its network transports: the fluid
//! simulation and the threaded runtime moving real bytes.

use redistribute::flowsim::{NetworkSpec, SimConfig};
use redistribute::kpbs::{Topology, TrafficMatrix};
use redistribute::mpilite::FabricConfig;
use redistribute::{Algo, Planner};

fn workload() -> (TrafficMatrix, Topology) {
    let topo = Topology::two_cluster(5, 5, 100.0, 100.0, 300.0); // k = 3
    let mut t = TrafficMatrix::zeros(5, 5);
    let mut v = 1_000_000u64;
    for i in 0..5 {
        for j in 0..5 {
            if (i + j) % 2 == 0 {
                t.set(i, j, v);
                v = v % 7_000_000 + 1_300_000;
            }
        }
    }
    (t, topo)
}

#[test]
fn plan_simulate_execute_agree() {
    let (traffic, topo) = workload();
    let plan = Planner::new(Algo::Oggp).plan(&traffic, &topo).unwrap();
    let planned = &plan.topo_plan;
    planned.schedule.validate(&planned.instance).unwrap();

    // Analytic cost vs ideal fluid simulation: within tick rounding.
    let sim = plan.simulate_ideal();
    let analytic = plan.cost_seconds();
    let rel = (sim.total_seconds - analytic).abs() / analytic;
    assert!(
        rel < 0.02,
        "sim {} vs analytic {analytic}",
        sim.total_seconds
    );

    // Threaded runtime: every byte delivered and verified.
    let fabric = FabricConfig {
        out_bytes_per_s: 2e9,
        in_bytes_per_s: 2e9,
        backbone_bytes_per_s: 6e9,
        chunk_bytes: 64 * 1024,
    };
    let run = plan.execute_threaded(fabric);
    run.verify_against(&traffic).unwrap();
    assert_eq!(run.delivered.total_bytes(), traffic.total_bytes());
    assert_eq!(run.steps.len(), planned.schedule.num_steps());
    assert_eq!(
        sim.steps.len(),
        run.steps.len(),
        "both transports run every step"
    );
}

#[test]
fn every_algorithm_end_to_end() {
    let (traffic, topo) = workload();
    let spec = NetworkSpec::from_topology(&topo).unwrap();
    for algo in [
        Algo::Ggp,
        Algo::Oggp,
        Algo::Sequential,
        Algo::List,
        Algo::Greedy,
    ] {
        let plan = Planner::new(algo).plan(&traffic, &topo).unwrap();
        plan.topo_plan
            .schedule
            .validate(&plan.topo_plan.instance)
            .unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        let sim = plan.simulate(&spec, &SimConfig::default());
        assert!(sim.total_seconds > 0.0, "{algo:?}");
        // Simulated time never beats the lower bound (barriers included in
        // both sides of the comparison).
        assert!(
            sim.total_seconds >= plan.lower_bound_seconds() * 0.999,
            "{algo:?}: sim {} below bound {}",
            sim.total_seconds,
            plan.lower_bound_seconds()
        );
    }
}

#[test]
fn schedulers_dominate_sequential_strawman() {
    let (traffic, topo) = workload();
    let seq = Planner::new(Algo::Sequential)
        .plan(&traffic, &topo)
        .unwrap();
    for algo in [Algo::Ggp, Algo::Oggp, Algo::List] {
        let plan = Planner::new(algo).plan(&traffic, &topo).unwrap();
        assert!(
            plan.cost_seconds() <= seq.cost_seconds() * 1.001,
            "{algo:?} worse than fully sequential"
        );
    }
}

#[test]
fn planner_options_respected() {
    let (traffic, topo) = workload();
    let p0 = Planner::new(Algo::Oggp)
        .with_beta(0.0)
        .plan(&traffic, &topo)
        .unwrap()
        .topo_plan;
    let p1 = Planner::new(Algo::Oggp)
        .with_beta(0.5)
        .plan(&traffic, &topo)
        .unwrap()
        .topo_plan;
    assert_eq!(p0.instance.beta, 0);
    assert_eq!(p1.instance.beta, 500); // ms ticks
                                       // A large β discourages preemption: no more slices than edges + steps.
    assert!(p1.schedule.num_steps() <= p0.schedule.num_steps().max(p0.instance.graph.edge_count()));
}

#[test]
fn asymmetric_clusters_supported() {
    // 8 senders, 3 receivers, mismatched NIC speeds.
    let topo = Topology::two_cluster(8, 3, 10.0, 100.0, 40.0); // t = 10, k = 3 (receiver-capped)
    assert_eq!(topo.link_k(0), 3);
    let mut t = TrafficMatrix::zeros(8, 3);
    for i in 0..8 {
        t.set(i, i % 3, 500_000 + i as u64 * 100_000);
    }
    let plan = Planner::new(Algo::Oggp).plan(&t, &topo).unwrap();
    plan.topo_plan
        .schedule
        .validate(&plan.topo_plan.instance)
        .unwrap();
    assert!(plan.evaluation_ratio() < 2.0);
    let sim = plan.simulate_ideal();
    assert!(sim.total_seconds > 0.0);
}
