//! Fault-injected schedule execution from the command line.
//!
//! Usage: redistexec [--n 8] [--t1 100] [--t2 100] [--backbone 400]
//!            [--beta 0.05] [--lo-mb 5] [--hi-mb 30] [--seed 1]
//!            [--algo NAME] [--transport loopback|sim]
//!            [--faults SEED] [--timeout SECS] [--trace out.json]
//!            [--rid N] [--metrics out.prom]
//!        redistexec --topo topo.txt [--beta 0.05] [--lo-mb 5] [--hi-mb 30]
//!            [--seed 1] [--algo NAME] [--faults SEED] [--timeout SECS]
//!        redistexec --bench [--seeds 40] [--out BENCH_exec.json]
//!
//! `--algo` takes any `kpbs::Algo` name (default `oggp`); a bad name is
//! rejected with the list of valid ones. The matrix and `--beta` pass the
//! tick-budget checks `redistd` applies to a request before anything is
//! planned; a failure exits with status 2.
//!
//! `--topo FILE` executes over a heterogeneous topology instead of the
//! uniform platform: the file holds `node OUT IN CLUSTER [COUNT]` and
//! `link CAP SRC DST` lines (`#` comments allowed). The workload fills
//! only routable pairs, planning runs per backbone under its own
//! preemption bound `k_b`, execution goes through the flowsim transport
//! lowered from the topology, and fault plans may include per-node NIC
//! slowdowns and per-link degradations.
//!
//! Plans a deterministic uniform workload, then executes it under the fault
//! plan generated from `--faults` (omit for a fault-free run). `--trace`
//! records step/retry/backoff/replan spans — every one labelled with the
//! owning request id (`--rid`, default: the workload `--seed`), the
//! execution slot, and for retries the failing transfer's `src`/`dst` —
//! and writes Chrome trace-event JSON (open in
//! <https://ui.perfetto.dev>). `--metrics` publishes the per-step
//! `redistexec_*` counters into a registry and writes its Prometheus text
//! exposition after the run.
//!
//! `--bench` runs the fixed regression campaign behind `BENCH_exec.json`
//! in `scripts/check.sh`: one zero-fault run (checked byte-identical to
//! plain execution) plus one run per fault seed, all verified against the
//! delivery invariant, with retry/replan/fault/splice counter totals.

use kpbs::traffic::TickScale;
use kpbs::{Algo, Platform, Topology, TrafficMatrix};
use redistexec::{
    plan_and_execute_observed, plan_and_execute_topo, ExecConfig, ExecMetrics, ExecReport,
    FaultPlan, FaultSpec, LoopbackTransport, PlanRecord, SimTransport, Transport,
};
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

fn uniform_matrix(seed: u64, n: usize, lo_mb: u64, hi_mb: u64) -> TrafficMatrix {
    let mut rng = Rng::new(seed);
    let mut m = TrafficMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mb = lo_mb + rng.next() % (hi_mb - lo_mb + 1);
            m.set(i, j, mb * 1_000_000);
        }
    }
    m
}

fn arg<T: std::str::FromStr>(name: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == format!("--{name}") {
            if let Some(v) = args.next() {
                match v.parse() {
                    Ok(parsed) => return parsed,
                    Err(e) => die(&format!("bad value for --{name}: {e}")),
                }
            }
        }
    }
    default
}

fn die(msg: &str) -> ! {
    eprintln!("redistexec: {msg}");
    std::process::exit(2);
}

/// Refuses a matrix or β the planner cannot take in ticks, the way
/// `redistd`'s decoder refuses such a request.
fn check_ticks(traffic: &TrafficMatrix, platform: &Platform, beta: f64) {
    if let Err(e) = traffic.check_tick_budget(platform, beta, TickScale::MILLIS) {
        die(&format!("cannot plan: {e}"));
    }
}

fn arg_str(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == format!("--{name}") {
            return args.next();
        }
    }
    None
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == format!("--{name}"))
}

#[allow(clippy::too_many_arguments)]
fn run<T: Transport>(
    traffic: &TrafficMatrix,
    platform: &Platform,
    beta: f64,
    transport: T,
    faults: FaultPlan,
    config: ExecConfig,
    metrics: Option<ExecMetrics>,
    rid: u64,
) -> (PlanRecord, ExecReport) {
    match plan_and_execute_observed(
        traffic,
        platform,
        beta,
        TickScale::MILLIS,
        transport,
        faults,
        config,
        metrics,
        rid,
    ) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("redistexec: execution failed: {e}");
            std::process::exit(1);
        }
    }
}

fn bench(seeds: u64, out_path: &str) {
    counters::enable();
    let n = 8;
    let beta = 0.05;
    let platform = Platform::new(n, n, 100.0, 100.0, 400.0);
    let traffic = uniform_matrix(1, n, 5, 30);
    let spec = FaultSpec::default();
    // Tight enough that an ×8 slowdown on a large step breaches it (the
    // largest fault-free step runs ~2.4 s), loose enough that unslowed
    // steps never do — so the campaign exercises the abort path too.
    let config = ExecConfig {
        step_timeout_seconds: 15.0,
        ..ExecConfig::default()
    };

    // Baseline: a fault-free run must be byte-identical to the plain
    // byte_slices expansion of the plan.
    let (initial, base) = run(
        &traffic,
        &platform,
        beta,
        LoopbackTransport::for_platform(&platform),
        FaultPlan::none(),
        config.clone(),
        None,
        0,
    );
    base.verify_against(&traffic).expect("zero-fault invariant");
    let plain = initial.step_ops();
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
        let faults = FaultPlan::generate(seed, n, n, &spec);
        let (_, report) = run(
            &traffic,
            &platform,
            beta,
            LoopbackTransport::for_platform(&platform),
            faults,
            config.clone(),
            None,
            0,
        );
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
        k = platform.k(),
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

/// A seeded workload on `topo`'s routable pairs only (unreachable pairs
/// carry no demand — the planner would reject them).
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

fn run_topo(topo_path: &str) {
    let text = std::fs::read_to_string(topo_path)
        .unwrap_or_else(|e| die(&format!("cannot read {topo_path}: {e}")));
    let topo = Topology::parse(&text).unwrap_or_else(|e| die(&format!("{topo_path}: {e}")));
    let beta: f64 = arg("beta", 0.05);
    let lo_mb: u64 = arg("lo-mb", 5);
    let hi_mb: u64 = arg("hi-mb", 30);
    let seed: u64 = arg("seed", 1);
    let timeout: f64 = arg("timeout", 3_600.0);
    let algo: Algo = arg("algo", Algo::Oggp);
    if lo_mb == 0 || lo_mb > hi_mb {
        die("need 1 <= --lo-mb <= --hi-mb");
    }
    let (n1, n2) = (topo.senders(), topo.receivers());
    let traffic = routable_matrix(seed, &topo, lo_mb, hi_mb);
    check_ticks(&traffic, &topo.slowest_platform(), beta);
    let faults = match arg_str("faults") {
        Some(s) => {
            let fseed: u64 = s.parse().unwrap_or_else(|_| die("bad value for --faults"));
            let spec = FaultSpec {
                nic_slowdowns: 2,
                link_degradations: 2,
                links: topo.links.len(),
                ..FaultSpec::default()
            };
            FaultPlan::generate(fseed, n1, n2, &spec)
        }
        None => FaultPlan::none(),
    };
    let fault_events = faults.event_count();
    let config = ExecConfig {
        algo,
        step_timeout_seconds: timeout,
        ..ExecConfig::default()
    };
    let transport =
        SimTransport::for_topology(&topo).unwrap_or_else(|e| die(&format!("{topo_path}: {e}")));
    let (initial, report) = match plan_and_execute_topo(
        &traffic,
        &topo,
        beta,
        TickScale::MILLIS,
        transport,
        faults,
        config,
    ) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("redistexec: execution failed: {e}");
            std::process::exit(1);
        }
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
        "topology: {n1}x{n2} over {} backbones ({}), beta={beta}s, transport=sim",
        topo.links.len(),
        ks.join(", ")
    );
    println!(
        "plan: {} steps, cost {} ticks; fault plan: {fault_events} events",
        initial.schedule.num_steps(),
        initial.schedule.cost()
    );
    println!(
        "executed {} steps in {:.3}s virtual time; faults: {} injected; \
         {} retries, {} timeouts, {} replans splicing {} steps",
        report.steps.len(),
        report.total_seconds,
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
}

fn main() {
    if flag("bench") {
        let seeds: u64 = arg("seeds", 40);
        let out: String = arg("out", "BENCH_exec.json".to_string());
        bench(seeds.max(1), &out);
        return;
    }
    if let Some(path) = arg_str("topo") {
        run_topo(&path);
        return;
    }

    let n: usize = arg("n", 8);
    let t1: f64 = arg("t1", 100.0);
    let t2: f64 = arg("t2", 100.0);
    let backbone: f64 = arg("backbone", 400.0);
    let beta: f64 = arg("beta", 0.05);
    let lo_mb: u64 = arg("lo-mb", 5);
    let hi_mb: u64 = arg("hi-mb", 30);
    let seed: u64 = arg("seed", 1);
    let timeout: f64 = arg("timeout", 3_600.0);
    let algo: Algo = arg("algo", Algo::Oggp);
    if n == 0 || lo_mb == 0 || lo_mb > hi_mb {
        die("need --n >= 1 and 1 <= --lo-mb <= --hi-mb");
    }

    let trace_path = arg_str("trace");
    if trace_path.is_some() {
        spans::enable();
    }
    // Spans are labelled with the owning request id; a standalone run's
    // "request" is the workload itself, so the seed doubles as the default.
    let rid: u64 = arg("rid", seed);
    let metrics_path = arg_str("metrics");
    let registry = Registry::default();
    let metrics = metrics_path
        .as_ref()
        .map(|_| ExecMetrics::register(&registry));

    let platform = Platform::new(n, n, t1, t2, backbone);
    let traffic = uniform_matrix(seed, n, lo_mb, hi_mb);
    check_ticks(&traffic, &platform, beta);
    let faults = match arg_str("faults") {
        Some(s) => {
            let fseed: u64 = s.parse().unwrap_or_else(|_| die("bad value for --faults"));
            FaultPlan::generate(fseed, n, n, &FaultSpec::default())
        }
        None => FaultPlan::none(),
    };
    let fault_events = faults.event_count();
    let config = ExecConfig {
        algo,
        step_timeout_seconds: timeout,
        ..ExecConfig::default()
    };

    let transport_kind = arg("transport", "loopback".to_string());
    let (initial, report) = match transport_kind.as_str() {
        "loopback" => run(
            &traffic,
            &platform,
            beta,
            LoopbackTransport::for_platform(&platform),
            faults,
            config,
            metrics,
            rid,
        ),
        "sim" => run(
            &traffic,
            &platform,
            beta,
            SimTransport::for_platform(&platform),
            faults,
            config,
            metrics,
            rid,
        ),
        other => {
            die(&format!("unknown --transport {other} (want loopback|sim)"));
        }
    };

    match report.verify_against(&traffic) {
        Ok(()) => println!("delivery invariant: OK"),
        Err(e) => {
            eprintln!("redistexec: delivery invariant VIOLATED: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "platform: {n}x{n}, k={}, beta={beta}s, transport={transport_kind}",
        platform.k()
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
        2 * n
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

    if let Some(path) = trace_path {
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
