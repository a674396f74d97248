//! Fault-injected schedule execution from the command line.
//!
//! Usage: redistexec [--n 8] [--t1 100] [--t2 100] [--backbone 400]
//!            [--beta 0.05] [--lo-mb 5] [--hi-mb 30] [--seed 1]
//!            [--algo NAME] [--transport loopback|sim]
//!            [--faults SEED] [--timeout SECS] [--trace out.json]
//!            [--rid N] [--metrics out.prom]
//!        redistexec --topo topo.txt [same options, without --n/--t1/--t2/--backbone]
//!        redistexec --bench [--seeds 40] [--out BENCH_exec.json]
//!
//! Every run executes over a `kpbs::Topology`. By default it is the
//! paper's platform, `--n` senders at `--t1` Mbit/s and `--n` receivers at
//! `--t2` behind one `--backbone` (`Topology::two_cluster`). `--topo FILE`
//! reads a heterogeneous one instead: `node OUT IN CLUSTER [COUNT]` and
//! `link CAP SRC DST` lines (`#` comments allowed). Either way the seeded
//! workload fills every routable pair, planning runs per backbone under
//! its own preemption bound `k_b`, and residual replans go through the
//! same planner. The default transport is `loopback` for the flag-built
//! platform and `sim` (flowsim lowered from the topology) for `--topo`;
//! the `--topo` fault plans add per-node NIC slowdowns and per-link
//! degradations.
//!
//! `--algo` takes any `kpbs::Algo` name (default `oggp`); a bad name is
//! rejected with the list of valid ones. The matrix and `--beta` pass the
//! tick-budget checks `redistd` applies to a request before anything is
//! planned. An unknown flag, a flag without its value, a malformed value
//! or a repeated flag exits with status 2 and one `redistexec: …` line on
//! stderr; `--help` prints the usage and exits 0.
//!
//! Plans the workload, then executes it under the fault plan generated
//! from `--faults` (omit for a fault-free run). `--trace` records
//! step/retry/backoff/replan spans — every one labelled with the owning
//! request id (`--rid`, default: the workload `--seed`), the execution
//! slot, and for retries the failing transfer's `src`/`dst` — and writes
//! Chrome trace-event JSON (open in <https://ui.perfetto.dev>).
//! `--metrics` publishes the per-step `redistexec_*` counters into a
//! registry and writes its Prometheus text exposition after the run.
//!
//! `--bench` runs the fixed regression campaign behind `BENCH_exec.json`
//! (byte-compared by `tests/exec_baseline.rs`): one zero-fault run (checked
//! byte-identical to plain execution) plus one run per fault seed, all
//! verified against the delivery invariant, with retry/replan/fault/splice
//! counter totals.

use kpbs::traffic::TickScale;
use kpbs::{plan_topology, Algo, TopoPlan, Topology, TrafficMatrix};
use redistexec::{
    step_ops, ExecConfig, ExecError, ExecMetrics, ExecReport, FaultPlan, FaultSpec,
    LoopbackTransport, Runtime, SimTransport, Transport,
};
use telemetry::cli::Args;
use telemetry::counters::{self, Counter};
use telemetry::metrics::Registry;
use telemetry::{export, spans};

/// xorshift64* workload generator (mirrors the `redistload` driver).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A seeded workload on `topo`'s routable pairs only (unreachable pairs
/// carry no demand — the planner would reject them). On the two-cluster
/// topology every pair is routable, so every cell draws, in row order.
fn routable_matrix(seed: u64, topo: &Topology, lo_mb: u64, hi_mb: u64) -> TrafficMatrix {
    let mut rng = Rng::new(seed);
    let mut m = TrafficMatrix::zeros(topo.senders(), topo.receivers());
    for i in 0..topo.senders() {
        for j in 0..topo.receivers() {
            if topo.route(i, j).is_some() {
                let mb = lo_mb + rng.next() % (hi_mb - lo_mb + 1);
                m.set(i, j, mb * 1_000_000);
            }
        }
    }
    m
}

fn die(msg: &str) -> ! {
    eprintln!("redistexec: {msg}");
    std::process::exit(2);
}

/// Plans `traffic` over `topo` with `config.algo` and executes the plan
/// under `faults`, publishing into `metrics` and labelling spans with
/// `rid`. A planning or execution failure exits with status 1.
#[allow(clippy::too_many_arguments)]
fn execute<T: Transport>(
    transport: T,
    topo: &Topology,
    traffic: &TrafficMatrix,
    beta: f64,
    faults: FaultPlan,
    config: ExecConfig,
    metrics: Option<ExecMetrics>,
    rid: u64,
) -> (TopoPlan, ExecReport) {
    let run = || {
        let initial = plan_topology(traffic, topo, beta, TickScale::MILLIS, config.algo)
            .map_err(ExecError::PlanningFailed)?;
        let mut rt = Runtime::new(transport, faults, config).with_correlation_id(rid);
        if let Some(m) = metrics {
            rt = rt.with_metrics(m);
        }
        let report = rt.run_plan(traffic, topo, beta, TickScale::MILLIS, &initial)?;
        Ok::<_, ExecError>((initial, report))
    };
    run().unwrap_or_else(|e| {
        eprintln!("redistexec: execution failed: {e}");
        std::process::exit(1);
    })
}

fn bench(seeds: u64, out_path: &str) {
    counters::enable();
    let n = 8;
    let beta = 0.05;
    let topo = Topology::two_cluster(n, n, 100.0, 100.0, 400.0);
    let traffic = routable_matrix(1, &topo, 5, 30);
    let spec = FaultSpec::default();
    // Tight enough that an ×8 slowdown on a large step breaches it (the
    // largest fault-free step runs ~2.4 s), loose enough that unslowed
    // steps never do — so the campaign exercises the abort path too.
    let config = ExecConfig {
        step_timeout_seconds: 15.0,
        ..ExecConfig::default()
    };
    let run = |faults| {
        let transport = LoopbackTransport::for_topology(&topo);
        execute(
            transport,
            &topo,
            &traffic,
            beta,
            faults,
            config.clone(),
            None,
            0,
        )
    };

    // Baseline: a fault-free run must be byte-identical to the plain
    // byte_slices expansion of the plan.
    let (initial, base) = run(FaultPlan::none());
    base.verify_against(&traffic).expect("zero-fault invariant");
    let plain = step_ops(&initial);
    assert_eq!(base.steps.len(), plain.len(), "zero-fault step count");
    for (got, want) in base.steps.iter().zip(&plain) {
        assert_eq!(&got.ops, want, "zero-fault run diverged from plan");
    }

    let mut retries = 0u64;
    let mut replans = 0u64;
    let mut faults_injected = 0u64;
    let mut spliced = 0u64;
    let mut timeouts = 0u64;
    let mut steps = 0u64;
    let mut overhead_sum = 0.0;
    for seed in 1..=seeds {
        let (_, report) = run(FaultPlan::generate(seed, n, n, &spec));
        report
            .verify_against(&traffic)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for rec in &report.plans {
            rec.schedule
                .validate(&rec.instance)
                .unwrap_or_else(|e| panic!("seed {seed}: spliced schedule invalid: {e}"));
        }
        retries += report.retries;
        replans += report.replans;
        faults_injected += report.faults_injected;
        spliced += report.steps_spliced;
        timeouts += report.timeouts;
        steps += report.steps.len() as u64;
        overhead_sum += report.total_seconds / base.total_seconds;
    }

    // The work counters must agree with the per-report sums.
    let snap = counters::global_snapshot();
    assert_eq!(snap.get(Counter::ExecRetries), retries);
    assert_eq!(snap.get(Counter::ExecReplans), replans);
    assert_eq!(snap.get(Counter::ExecFaultsInjected), faults_injected);
    assert_eq!(snap.get(Counter::ExecStepsSpliced), spliced);

    let json = format!(
        "{{\n  \"seeds\": {seeds},\n  \"n\": {n},\n  \"k\": {k},\n  \
         \"beta_seconds\": {beta:.4},\n  \"zero_fault_steps\": {zf},\n  \
         \"zero_fault_seconds\": {zs:.6},\n  \"total_steps_executed\": {steps},\n  \
         \"total_retries\": {retries},\n  \"total_replans\": {replans},\n  \
         \"total_faults_injected\": {faults_injected},\n  \
         \"total_steps_spliced\": {spliced},\n  \"total_timeouts\": {timeouts},\n  \
         \"mean_overhead_ratio\": {overhead:.6}\n}}\n",
        k = topo.link_k(0),
        zf = base.steps.len(),
        zs = base.total_seconds,
        overhead = overhead_sum / seeds as f64,
    );
    std::fs::write(out_path, &json).expect("write BENCH_exec.json");
    eprintln!(
        "redistexec: {seeds} fault seeds verified; {retries} retries, {replans} replans, \
         {spliced} steps spliced -> {out_path}"
    );
    print!("{json}");
}

fn main() {
    let mut cli = Args::from_env("redistexec");
    if cli.flag("help") {
        println!(
            "redistexec — fault-injected schedule execution\n\
             \n\
             usage: redistexec [--n 8] [--t1 100] [--t2 100] [--backbone 400]\n\
             \x20                 [--beta 0.05] [--lo-mb 5] [--hi-mb 30] [--seed 1]\n\
             \x20                 [--algo {}] [--transport loopback|sim]\n\
             \x20                 [--faults SEED] [--timeout SECS] [--trace out.json]\n\
             \x20                 [--rid N] [--metrics out.prom]\n\
             \x20      redistexec --topo topo.txt [same options, without --n/--t1/--t2/--backbone]\n\
             \x20      redistexec --bench [--seeds 40] [--out BENCH_exec.json]\n\
             \n\
             Plans a seeded workload over the topology (per backbone, under its\n\
             own k_b) and executes it under the fault plan of --faults (omit for\n\
             a fault-free run), replanning the residual after each failure.\n\
             --topo reads 'node OUT IN CLUSTER [COUNT]' and 'link CAP SRC DST'\n\
             lines ('#' comments allowed) instead of the two-cluster platform.\n\
             --bench runs the regression campaign behind BENCH_exec.json.",
            Algo::NAMES.join("|")
        );
        return;
    }
    let bench_run = cli.flag("bench");
    let seeds: u64 = cli.value("seeds").unwrap_or(40);
    let out: String = cli.value("out").unwrap_or("BENCH_exec.json".into());
    let topo_path: Option<String> = cli.value("topo");
    let n: Option<usize> = cli.value("n");
    let t1: Option<f64> = cli.value("t1");
    let t2: Option<f64> = cli.value("t2");
    let backbone: Option<f64> = cli.value("backbone");
    let beta: f64 = cli.value("beta").unwrap_or(0.05);
    let lo_mb: u64 = cli.value("lo-mb").unwrap_or(5);
    let hi_mb: u64 = cli.value("hi-mb").unwrap_or(30);
    let seed: u64 = cli.value("seed").unwrap_or(1);
    let algo: Algo = cli.value("algo").unwrap_or(Algo::Oggp);
    let transport: Option<String> = cli.value("transport");
    let fault_seed: Option<u64> = cli.value("faults");
    let timeout: f64 = cli.value("timeout").unwrap_or(3_600.0);
    let trace: Option<String> = cli.value("trace");
    let rid: Option<u64> = cli.value("rid");
    let metrics_path: Option<String> = cli.value("metrics");
    let platform_flags = n.is_some() || t1.is_some() || t2.is_some() || backbone.is_some();
    if topo_path.is_some() && platform_flags {
        cli.refuse("--topo replaces --n/--t1/--t2/--backbone");
    }
    if lo_mb == 0 || lo_mb > hi_mb {
        cli.refuse("need 1 <= --lo-mb <= --hi-mb");
    }
    if let Some(other) = transport
        .as_deref()
        .filter(|t| !["loopback", "sim"].contains(t))
    {
        cli.refuse(format!("unknown --transport {other} (want loopback|sim)"));
    }
    cli.finish();
    let (n, t1, t2, backbone) = (
        n.unwrap_or(8),
        t1.unwrap_or(100.0),
        t2.unwrap_or(100.0),
        backbone.unwrap_or(400.0),
    );
    if bench_run {
        bench(seeds.max(1), &out);
        return;
    }

    // The network, and each source's default transport and fault mix.
    let (topo, default_transport, spec) = match &topo_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            let topo = Topology::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            let spec = FaultSpec {
                nic_slowdowns: 2,
                link_degradations: 2,
                links: topo.links.len(),
                ..FaultSpec::default()
            };
            (topo, "sim", spec)
        }
        None => {
            let topo = Topology::two_cluster(n, n, t1, t2, backbone);
            if let Err(e) = topo.validate() {
                die(&format!("bad platform: {e}"));
            }
            (topo, "loopback", FaultSpec::default())
        }
    };
    let (n1, n2) = (topo.senders(), topo.receivers());
    let traffic = routable_matrix(seed, &topo, lo_mb, hi_mb);
    // The refusal `redistd`'s decoder applies to a request it cannot plan
    // in ticks.
    if let Err(e) = traffic.check_tick_budget(&topo.slowest_platform(), beta, TickScale::MILLIS) {
        die(&format!("cannot plan: {e}"));
    }
    let faults = fault_seed.map_or_else(FaultPlan::none, |fseed| {
        FaultPlan::generate(fseed, n1, n2, &spec)
    });
    let fault_events = faults.event_count();

    if trace.is_some() {
        spans::enable();
    }
    // Spans are labelled with the owning request id; a standalone run's
    // "request" is the workload itself, so the seed doubles as the default.
    let rid = rid.unwrap_or(seed);
    let registry = Registry::default();
    let metrics = metrics_path
        .as_ref()
        .map(|_| ExecMetrics::register(&registry));
    let config = ExecConfig {
        algo,
        step_timeout_seconds: timeout,
    };

    let kind = transport.as_deref().unwrap_or(default_transport);
    let (initial, report) = match kind {
        "loopback" => {
            let transport = LoopbackTransport::for_topology(&topo);
            execute(
                transport, &topo, &traffic, beta, faults, config, metrics, rid,
            )
        }
        "sim" => {
            let transport = SimTransport::for_topology(&topo).unwrap_or_else(|e| die(&e));
            execute(
                transport, &topo, &traffic, beta, faults, config, metrics, rid,
            )
        }
        _ => unreachable!("--transport is checked before planning"),
    };

    match report.verify_against(&traffic) {
        Ok(()) => println!("delivery invariant: OK"),
        Err(e) => {
            eprintln!("redistexec: delivery invariant VIOLATED: {e}");
            std::process::exit(1);
        }
    }
    let ks: Vec<String> = (0..topo.links.len())
        .map(|b| format!("k_{b}={}", topo.link_k(b)))
        .collect();
    println!(
        "topology: {n1}x{n2} over {} backbones ({}), beta={}s, transport={kind}",
        topo.links.len(),
        ks.join(", "),
        beta
    );
    println!(
        "plan: {} steps, cost {} ticks; fault plan: {fault_events} events",
        initial.schedule.num_steps(),
        initial.schedule.cost()
    );
    println!(
        "executed {} steps in {:.3}s virtual time ({} survivors of {} nodes)",
        report.steps.len(),
        report.total_seconds,
        report
            .senders_alive
            .iter()
            .chain(&report.receivers_alive)
            .filter(|&&a| a)
            .count(),
        n1 + n2
    );
    println!(
        "faults: {} injected; {} retries, {} timeouts, {} replans splicing {} steps",
        report.faults_injected,
        report.retries,
        report.timeouts,
        report.replans,
        report.steps_spliced
    );
    println!(
        "delivered {} of {} bytes",
        report.delivered.total_bytes(),
        traffic.total_bytes()
    );

    if let Some(path) = trace {
        spans::disable();
        let events = spans::drain_all();
        let json = export::chrome_trace(&events);
        std::fs::write(&path, &json).expect("write trace file");
        println!(
            "trace: {} events written to {path} (open in https://ui.perfetto.dev)",
            events.len()
        );
    }

    if let Some(path) = metrics_path {
        let text = registry.render();
        std::fs::write(&path, &text).expect("write metrics file");
        println!("metrics: exposition written to {path}");
    }
}
