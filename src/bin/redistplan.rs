//! `redistplan` — plan a data redistribution from the command line.
//!
//! ```sh
//! redistplan --matrix traffic.csv --t1 100 --t2 100 --backbone 300 \
//!            [--beta 0.05] [--algo oggp|ggp|hier|sequential|list|greedy] \
//!            [--blocks B] [--jobs N] [--gantt] [--simulate] [--compare] \
//!            [--trace out.json] [--counters]
//! redistplan --matrix traffic.csv --topo topo.txt [same options, without --t1/--t2/--backbone]
//! ```
//!
//! The CSV holds one row per sender with per-receiver byte counts
//! (`k`/`M`/`G` suffixes allowed, `#` comments skipped). `--matrix -` reads
//! the matrix from stdin instead of a file (at most once). Without `--matrix`
//! a small demo workload is used. `--matrix` may be repeated to plan a batch
//! of redistributions in one invocation; `--jobs N` schedules the batch (and
//! the `--compare` sweep) on `N` worker threads. Planning is deterministic
//! per instance and results are printed in input order, so the output is
//! identical for every `--jobs` value — only the wall time changes
//! (`tests/cli.rs`'s `jobs_do_not_change_the_output` checks it).
//!
//! Every matrix is planned over a `kpbs::Topology` by `kpbs::plan_topology`:
//! the `--topo` file, or else the paper's two-cluster platform at the
//! matrix's shape, `--t1`/`--t2` NICs behind one `--backbone`
//! (`Topology::two_cluster`). Both print the same report, and every other
//! option works on both. The matrices and `--beta` pass the tick-budget
//! check `redistd` applies to a request before anything is planned; a
//! failure exits with status 2. So does, before any input is read, an
//! unknown flag, a missing or malformed value, a repeated flag other than
//! `--matrix`, `--blocks` without `--algo hier`, and `--t1`, `--t2` or
//! `--backbone` with `--topo`.
//!
//! `--trace <path>` records telemetry spans through planning and simulation
//! (it implies `--simulate`) and writes a Chrome trace-event JSON loadable
//! in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! `--counters` prints the deterministic work-counter table after planning
//! (worker threads flush their counters when the batch joins, so the table
//! too is independent of `--jobs`).

use redistribute::cli::parse_matrix_csv;
use redistribute::kpbs::batch::parallel_map;
use redistribute::kpbs::hier::HierConfig;
use redistribute::kpbs::traffic::TickScale;
use redistribute::kpbs::{Topology, TrafficMatrix};
use redistribute::telemetry::cli::Args;
use redistribute::telemetry::{counters, export, spans};
use redistribute::{Algo, Plan, Planner};

/// The planner's name as the report lines print it ("Oggp", "Hier", …).
fn label(algo: Algo) -> String {
    let name = algo.to_string();
    name[..1].to_uppercase() + &name[1..]
}

fn main() {
    let mut cli = Args::from_env("redistplan");
    if cli.flag("help") {
        println!(
            "redistplan — plan a data redistribution from the command line\n\
             \n\
             usage: redistplan --matrix traffic.csv --t1 100 --t2 100 --backbone 300\n\
             \x20                [--beta 0.05] [--algo {}]\n\
             \x20                [--blocks B] [--jobs N] [--gantt] [--simulate] [--compare]\n\
             \x20                [--trace out.json] [--counters]\n\
             \n\
             The CSV holds one row per sender with per-receiver byte counts\n\
             (k/M/G suffixes allowed, '#' comments skipped). Without --matrix a\n\
             small demo workload is used. Repeat --matrix to plan a batch in one\n\
             invocation. Pass '-' as the path to read one matrix from stdin\n\
             (usable once per invocation, combinable with file paths).\n\
             \n\
             --topo <path>   plan over a heterogeneous topology instead of the\n\
             \x20               uniform --t1/--t2/--backbone platform. The file\n\
             \x20               holds 'node OUT IN CLUSTER [COUNT]' and\n\
             \x20               'link CAP SRC DST' lines ('#' comments allowed);\n\
             \x20               each traffic block is planned under its own\n\
             \x20               backbone's preemption bound k_b and the per-link\n\
             \x20               schedules are composed\n\
             --blocks B      block count for --algo hier (default: auto, ~sqrt(n)\n\
             \x20               of each instance planned; 1 reproduces flat oggp)\n\
             --jobs N        plan batches and --compare sweeps on N threads;\n\
             \x20               output is identical to --jobs 1\n\
             --trace <path>  record spans and write Chrome trace-event JSON\n\
             \x20               (open in Perfetto or chrome://tracing; implies\n\
             \x20               --simulate)\n\
             --counters      print the deterministic work-counter table",
            Algo::NAMES.join("|")
        );
        return;
    }

    let matrix_paths: Vec<String> = cli.values("matrix");
    let topo_path: Option<String> = cli.value("topo");
    let t1: Option<f64> = cli.value("t1");
    let t2: Option<f64> = cli.value("t2");
    let backbone: Option<f64> = cli.value("backbone");
    let beta: f64 = cli.value("beta").unwrap_or(0.05);
    let algo: Algo = cli.value("algo").unwrap_or(Algo::Oggp);
    let jobs: usize = cli.value("jobs").unwrap_or(1);
    let blocks: Option<usize> = cli.value("blocks");
    let trace_path: Option<String> = cli.value("trace");
    let gantt = cli.flag("gantt");
    let simulate = cli.flag("simulate");
    let compare = cli.flag("compare");
    let want_counters = cli.flag("counters");
    if jobs == 0 {
        cli.refuse("--jobs must be at least 1");
    }
    if blocks == Some(0) {
        cli.refuse("--blocks must be at least 1");
    }
    if blocks.is_some() && !matches!(algo, Algo::Hier(_)) {
        cli.refuse("--blocks needs --algo hier");
    }
    if topo_path.is_some() && (t1.is_some() || t2.is_some() || backbone.is_some()) {
        cli.refuse("--topo replaces --t1/--t2/--backbone");
    }
    if matrix_paths.iter().filter(|p| *p == "-").count() > 1 {
        cli.refuse("--matrix - (stdin) can be given at most once");
    }
    cli.finish();

    let traffics: Vec<TrafficMatrix> = if matrix_paths.is_empty() {
        eprintln!("(no --matrix given; using a 4x4 demo workload)");
        let mut t = TrafficMatrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                t.set(i, j, 5_000_000 + (i * 4 + j) as u64 * 2_000_000);
            }
        }
        vec![t]
    } else {
        matrix_paths
            .iter()
            .map(|path| {
                let text = if path == "-" {
                    use std::io::Read;
                    let mut buf = String::new();
                    std::io::stdin()
                        .read_to_string(&mut buf)
                        .unwrap_or_else(|e| die(&format!("cannot read stdin: {e}")));
                    buf
                } else {
                    std::fs::read_to_string(path)
                        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")))
                };
                parse_matrix_csv(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
            })
            .collect()
    };
    let algo = match algo {
        Algo::Hier(cfg) => Algo::Hier(HierConfig {
            blocks: blocks.unwrap_or(0),
            ..cfg
        }),
        other => other,
    };
    let label_of = |i: usize| matrix_paths.get(i).map_or("<demo>", String::as_str);

    // Telemetry must be armed before planning so the spans and counters see
    // the scheduler's work (worker threads observe the same global switches).
    if trace_path.is_some() {
        spans::enable();
    }
    if want_counters {
        counters::enable();
    }

    // Each matrix gets its own network: the --topo file, or the two-cluster
    // platform at its shape (matrices in a batch may differ in shape).
    let topo_file = topo_path.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        Topology::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
    });
    let t1 = t1.unwrap_or(100.0);
    let t2 = t2.unwrap_or(100.0);
    let backbone = backbone.unwrap_or(t1.max(t2));
    let inputs: Vec<(TrafficMatrix, Topology)> = traffics
        .into_iter()
        .map(|t| {
            let topo = topo_file.clone().unwrap_or_else(|| {
                Topology::two_cluster(t.senders(), t.receivers(), t1, t2, backbone)
            });
            (t, topo)
        })
        .collect();
    for (traffic, topo) in &inputs {
        if let Err(e) = topo.validate() {
            die(&format!("bad platform: {e}"));
        }
        // The refusal `redistd`'s decoder applies to a request it cannot
        // plan in ticks.
        if let Err(e) = traffic.check_tick_budget(&topo.slowest_platform(), beta, TickScale::MILLIS)
        {
            die(&format!("cannot plan: {e}"));
        }
    }
    let simulate = simulate || trace_path.is_some();

    let planner = Planner::new(algo).with_beta(beta);
    // The fan-out: all plans are computed before anything is printed, and
    // printed in input order, keeping the output independent of --jobs.
    let plans: Vec<Plan> = parallel_map(&inputs, jobs, |(t, topo)| planner.plan(t, topo))
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| die(&format!("topology planning failed: {e}")));

    for (i, plan) in plans.iter().enumerate() {
        let (traffic, topo) = (&plan.traffic, &plan.topology);
        if plans.len() > 1 {
            println!("[{}/{}] {}", i + 1, plans.len(), label_of(i));
        }
        println!(
            "topology: {} senders, {} receivers, {} backbones; traffic: {} messages, {:.1} MB",
            topo.senders(),
            topo.receivers(),
            topo.links.len(),
            traffic.message_count(),
            traffic.total_bytes() as f64 / 1e6
        );
        for lp in &plan.topo_plan.link_plans {
            let link = &topo.links[lp.link];
            println!(
                "  link {} ({} -> {}, {:.1} Mbit/s): k_b = {}, {} messages, cost {:.2} s (bound {:.2} s)",
                lp.link,
                link.connects.0,
                link.connects.1,
                link.capacity,
                lp.k,
                lp.messages,
                plan.scale.to_seconds(lp.cost),
                plan.scale.to_seconds(lp.lower_bound)
            );
        }
        println!(
            "{}: {} steps, cost {:.2} s, lower bound {:.2} s, ratio {:.4}",
            label(algo),
            plan.topo_plan.schedule.num_steps(),
            plan.cost_seconds(),
            plan.lower_bound_seconds(),
            plan.evaluation_ratio()
        );

        if gantt {
            println!("\n{}", plan.gantt());
        }
        if simulate {
            let r = plan.simulate_ideal();
            let steps = r.steps.len();
            println!(
                "simulated on the topology's network: {:.2} s over {steps} steps ({:.2} s barriers)",
                r.total_seconds,
                plan.beta_seconds * steps as f64
            );
        }
        if compare {
            let algos = [
                Algo::Oggp,
                Algo::Ggp,
                Algo::List,
                Algo::Greedy,
                Algo::Sequential,
            ];
            let compared = parallel_map(&algos, jobs, |&a| {
                Planner::new(a)
                    .with_beta(beta)
                    .plan(traffic, topo)
                    .unwrap_or_else(|e| die(&format!("topology planning failed: {e}")))
            });
            println!("\nall algorithms:");
            for (a, p) in algos.iter().zip(&compared) {
                println!(
                    "  {}: {:>3} steps, {:>8.2} s (ratio {:.4})",
                    label(*a),
                    p.topo_plan.schedule.num_steps(),
                    p.cost_seconds(),
                    p.evaluation_ratio()
                );
            }
        }
    }

    if let Some(path) = trace_path {
        spans::disable();
        let events = spans::drain_all();
        let json = export::chrome_trace(&events);
        std::fs::write(&path, &json).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!(
            "\ntrace: {} events written to {path} (open in https://ui.perfetto.dev)",
            events.len()
        );
        print!("{}", export::span_summary(&events));
    }
    if want_counters {
        counters::disable();
        println!("\nwork counters:");
        print!("{}", export::counter_summary(&counters::global_snapshot()));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("redistplan: {msg}");
    std::process::exit(2);
}
