//! Criterion benches of the schedulers themselves — the paper's claim that
//! GGP and OGGP have "a low complexity that makes them useful in practice"
//! (all simulated inputs ran "under one second").
//!
//! Benchmarks GGP, OGGP and the baselines across graph sizes, plus the two
//! pipeline stages (regularisation, lower bound) in isolation.

use bipartite::generate::{random_graph, GraphParams};
use bipartite::Graph;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kpbs::ggp::ggp_seeded;
use kpbs::{exact, lower_bound, oggp, regularize, Algo, Instance};
use rand::{rngs::SmallRng, SeedableRng};
use std::hint::black_box;

fn fixture(nodes: usize, edges: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let params = GraphParams {
        max_nodes_per_side: nodes,
        max_edges: edges,
        weight_range: (1, 20),
    };
    random_graph(&mut rng, &params)
}

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedulers");
    for &(nodes, edges) in &[(10usize, 50usize), (20, 200), (20, 400), (40, 800)] {
        let g = fixture(nodes, edges, 42);
        let k = (g.left_count().min(g.right_count()) / 2).max(1);
        let inst = Instance::new(g, k, 1);
        for algo in [Algo::Ggp, Algo::Oggp, Algo::List, Algo::Greedy] {
            group.bench_with_input(
                BenchmarkId::new(algo.to_string(), format!("{nodes}n_{edges}m")),
                &inst,
                |b, inst| b.iter(|| black_box(algo.plan(inst))),
            );
        }
        group.bench_with_input(
            BenchmarkId::new("ggp_seeded", format!("{nodes}n_{edges}m")),
            &inst,
            |b, inst| b.iter(|| black_box(ggp_seeded(inst))),
        );
    }
    group.finish();
}

fn bench_exact_solver(c: &mut Criterion) {
    // The exponential reference solver on increasingly hard tiny instances:
    // how far the memoised branch-and-bound stretches.
    let mut group = c.benchmark_group("exact");
    group.sample_size(10);
    for &(m, wmax) in &[(3usize, 3u64), (4, 4), (5, 4)] {
        let mut g = Graph::new(3, 3);
        let mut rng = SmallRng::seed_from_u64(m as u64);
        use rand::Rng;
        let mut used = std::collections::HashSet::new();
        let mut added = 0;
        while added < m {
            let l = rng.gen_range(0..3);
            let r = rng.gen_range(0..3);
            if used.insert((l, r)) {
                g.add_edge(l, r, rng.gen_range(1..=wmax));
                added += 1;
            }
        }
        let inst = Instance::new(g, 2, 1);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}e_w{wmax}")),
            &inst,
            |b, inst| b.iter(|| black_box(exact::optimal_cost(inst, exact::Limits::default()))),
        );
    }
    group.finish();
}

fn bench_pipeline_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    let g = fixture(20, 400, 7);
    let k = (g.left_count().min(g.right_count()) / 2).max(1);
    let inst = Instance::new(g.clone(), k, 1);
    group.bench_function("regularize", |b| {
        b.iter(|| black_box(regularize::regularize(&g, k)))
    });
    group.bench_function("lower_bound", |b| b.iter(|| black_box(lower_bound(&inst))));
    group.finish();
}

fn bench_k_sensitivity(c: &mut Criterion) {
    // The regularisation adds ~|V1|+|V2|-2k virtual nodes, so small k means
    // bigger peeled graphs; quantify the cost of that design choice.
    let mut group = c.benchmark_group("oggp_vs_k");
    let g = fixture(20, 300, 21);
    let kmax = g.left_count().min(g.right_count());
    for k in [1, (kmax / 2).max(1), kmax] {
        let inst = Instance::new(g.clone(), k, 1);
        group.bench_with_input(BenchmarkId::from_parameter(k), &inst, |b, inst| {
            b.iter(|| black_box(oggp(inst)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_schedulers,
    bench_pipeline_stages,
    bench_k_sensitivity,
    bench_exact_solver
);
criterion_main!(benches);
