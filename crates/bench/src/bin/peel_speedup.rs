//! Cold vs incremental peeling wall-time comparison, machine readable.
//!
//! Runs the from-scratch oracle pipeline and the incremental-engine
//! pipeline on Figure-8-style large-weight instances (dense, n >= 32,
//! weights U[1, 10000], beta = 1), checks the OGGP schedules are
//! identical, and writes `BENCH_peeling.json` with instances, wall times,
//! speedups, peel counts and deterministic work counters (Hopcroft–Karp
//! phases, augmentation attempts, DFS edge visits, threshold probes, merge
//! passes, CSR adjacency rebuilds, epoch resets) so the cold-vs-incremental
//! speedups are explained by counted work, not just wall-clock. The
//! checked-in copy at the repository root is regenerated with:
//!
//! ```sh
//! cargo run --release -p bench --bin peel_speedup
//! ```
//!
//! Options: `--reps N` timing repetitions (default 7), `--out PATH` output
//! file (default `BENCH_peeling.json`), `--jobs N` worker threads for the
//! work-counter passes (default 1; counters are thread-local so the values
//! are identical for any N — timing passes always run sequentially).

use bench::{arg_or, jobs_or, row};
use bipartite::generate::complete_graph;
use bipartite::Graph;
use kpbs::batch::parallel_map;
use kpbs::ggp::{ggp, schedule_with};
use kpbs::normalize::normalize;
use kpbs::oggp::{oggp, oggp_reference};
use kpbs::regularize::regularize;
use kpbs::wrgp::{peel_all_incremental, IncrementalMaxMin};
use kpbs::{Instance, Schedule};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::time::Instant;
use telemetry::counters::{self, Counter, Snapshot};

/// Best-of-`reps` wall time in milliseconds, plus the (deterministic)
/// schedule the closure produces.
fn time_ms<F: FnMut() -> Schedule>(mut f: F, reps: usize) -> (f64, Schedule) {
    let mut out = f(); // warm-up, also the reported schedule
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        out = std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

/// Deterministic work counted over one run of `f` on the calling thread.
/// Counting must already be enabled; the timing loops run with it disabled
/// so the reported milliseconds stay telemetry-free.
fn work_of<F: FnMut() -> Schedule>(mut f: F) -> Snapshot {
    let before = counters::local_snapshot();
    std::hint::black_box(f());
    counters::local_snapshot().delta(&before)
}

/// The matching-work subset of the counters as a JSON object.
fn work_json(s: &Snapshot) -> String {
    format!(
        "{{ \"hk_phases\": {}, \"kuhn_attempts\": {}, \"dfs_edge_visits\": {}, \
         \"threshold_probes\": {}, \"merge_passes\": {}, \"adj_rebuilds\": {}, \
         \"epoch_resets\": {}, \"peels\": {} }}",
        s.get(Counter::HkPhases),
        s.get(Counter::KuhnAttempts),
        s.get(Counter::DfsEdgeVisits),
        s.get(Counter::ThresholdProbes),
        s.get(Counter::MergePasses),
        s.get(Counter::AdjRebuilds),
        s.get(Counter::EpochResets),
        s.get(Counter::Peels),
    )
}

struct Case {
    name: &'static str,
    inst: Instance,
}

fn cases() -> Vec<Case> {
    let mut rng = SmallRng::seed_from_u64(0xf1608);
    let mut v = Vec::new();
    for &n in &[32usize, 40] {
        let g = complete_graph(&mut rng, n, n, (1, 10_000));
        v.push(Case {
            name: if n == 32 {
                "complete_n32"
            } else {
                "complete_n40"
            },
            inst: Instance::new(g, n, 1),
        });
    }
    // Fig. 8 campaign shape: up to 400 edges over 32 + 32 nodes.
    let mut g = Graph::new(32, 32);
    for _ in 0..400 {
        g.add_edge(
            rng.gen_range(0..32),
            rng.gen_range(0..32),
            rng.gen_range(1..=10_000),
        );
    }
    v.push(Case {
        name: "dense_n32_m400",
        inst: Instance::new(g, 16, 1),
    });
    v
}

/// Number of WRGP peels for this instance (before synthetic-only steps are
/// dropped from the schedule).
fn peel_count(inst: &Instance) -> usize {
    let norm = normalize(inst);
    let reg = regularize(&norm.graph, norm.k);
    let mut work = reg.graph;
    peel_all_incremental(&mut work, &mut IncrementalMaxMin::new()).len()
}

/// Per-case work counters: cold/incremental OGGP, cold/incremental GGP.
struct CaseWork {
    oggp_cold: Snapshot,
    oggp_incr: Snapshot,
    ggp_cold: Snapshot,
    ggp_incr: Snapshot,
}

fn main() {
    let reps: usize = arg_or("reps", 7);
    let out_path: String = arg_or("out", "BENCH_peeling.json".to_string());
    let jobs: usize = jobs_or(1);

    let cases = cases();

    // Counted work, measured before the timing passes (counting disabled
    // again below) and fanned out over `jobs` threads: thread-local counters
    // make the per-case deltas exact and identical for any jobs value.
    counters::enable();
    let works: Vec<CaseWork> = parallel_map(&cases, jobs, |case| {
        let inst = &case.inst;
        CaseWork {
            oggp_cold: work_of(|| oggp_reference(inst)),
            oggp_incr: work_of(|| oggp(inst)),
            ggp_cold: work_of(|| schedule_with(inst, &kpbs::wrgp::AnyPerfect)),
            ggp_incr: work_of(|| ggp(inst)),
        }
    });
    counters::disable();

    let mut entries = Vec::new();
    row(&[
        "case".into(),
        "algo".into(),
        "cold ms".into(),
        "incr ms".into(),
        "speedup".into(),
    ]);
    for (case, work) in cases.iter().zip(&works) {
        let inst = &case.inst;
        let (oggp_cold_ms, oggp_cold) = time_ms(|| oggp_reference(inst), reps);
        let (oggp_incr_ms, oggp_incr) = time_ms(|| oggp(inst), reps);
        assert_eq!(
            oggp_cold, oggp_incr,
            "incremental OGGP must reproduce the oracle schedule exactly"
        );
        let (ggp_cold_ms, ggp_cold) =
            time_ms(|| schedule_with(inst, &kpbs::wrgp::AnyPerfect), reps);
        let (ggp_incr_ms, ggp_incr) = time_ms(|| ggp(inst), reps);
        ggp_cold.validate(inst).expect("cold GGP schedule valid");
        ggp_incr
            .validate(inst)
            .expect("incremental GGP schedule valid");
        let peels = peel_count(inst);
        let oggp_speedup = oggp_cold_ms / oggp_incr_ms;
        let ggp_speedup = ggp_cold_ms / ggp_incr_ms;
        row(&[
            case.name.into(),
            "oggp".into(),
            format!("{oggp_cold_ms:.2}"),
            format!("{oggp_incr_ms:.2}"),
            format!("{oggp_speedup:.2}x"),
        ]);
        row(&[
            case.name.into(),
            "ggp".into(),
            format!("{ggp_cold_ms:.2}"),
            format!("{ggp_incr_ms:.2}"),
            format!("{ggp_speedup:.2}x"),
        ]);
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"left\": {}, \"right\": {}, \"edges\": {}, \"k\": {}, \"beta\": {},\n",
                "      \"weight_range\": [1, 10000],\n",
                "      \"peels\": {},\n",
                "      \"oggp\": {{ \"cold_ms\": {:.4}, \"incremental_ms\": {:.4}, ",
                "\"speedup\": {:.3}, \"steps\": {}, \"cost\": {}, \"identical\": true }},\n",
                "      \"ggp\": {{ \"cold_ms\": {:.4}, \"incremental_ms\": {:.4}, ",
                "\"speedup\": {:.3}, \"steps\": {}, \"cost\": {} }},\n",
                "      \"work\": {{\n",
                "        \"oggp_cold\": {},\n",
                "        \"oggp_incremental\": {},\n",
                "        \"ggp_cold\": {},\n",
                "        \"ggp_incremental\": {}\n",
                "      }}\n",
                "    }}"
            ),
            case.name,
            inst.graph.left_count(),
            inst.graph.right_count(),
            inst.graph.edge_count(),
            inst.k,
            inst.beta,
            peels,
            oggp_cold_ms,
            oggp_incr_ms,
            oggp_speedup,
            oggp_incr.num_steps(),
            oggp_incr.cost(),
            ggp_cold_ms,
            ggp_incr_ms,
            ggp_speedup,
            ggp_incr.num_steps(),
            ggp_incr.cost(),
            work_json(&work.oggp_cold),
            work_json(&work.oggp_incr),
            work_json(&work.ggp_cold),
            work_json(&work.ggp_incr),
        ));
    }
    let json = format!(
        "{{\n  \"campaign\": \"fig08_large_weights\",\n  \"timing\": \"best of {reps} runs, ms\",\n  \"instances\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write output file");
    println!("wrote {out_path}");
}
