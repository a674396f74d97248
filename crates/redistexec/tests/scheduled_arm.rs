//! The paper's scheduled arm (§5.2) through the one executor: fault-free
//! [`Runtime`] runs over [`SimTransport`] (Figures 10–11's fluid network)
//! and over [`MpiTransport`] (real bytes through the shaped threaded
//! fabric), plus the fault model applied to the MPI arm.

use flowsim::{NetworkSpec, SimConfig, TcpModel};
use kpbs::traffic::TickScale;
use kpbs::{oggp, Algo, Platform, Schedule, Topology, TrafficMatrix};
use mpilite::FabricConfig;
use rand::{rngs::SmallRng, SeedableRng};
use redistexec::{
    brute_force, execute_fault_free, plan_and_execute_topo, ExecConfig, ExecReport, FaultPlan,
    FaultSpec, MpiTransport, SimTransport, Transport,
};

const SCALE: TickScale = TickScale::MILLIS;

fn execute<T: Transport>(
    transport: T,
    traffic: &TrafficMatrix,
    platform: &Platform,
    beta: f64,
    schedule: &Schedule,
) -> ExecReport {
    let topo = Topology::from_platform(platform);
    execute_fault_free(transport, traffic, &topo, beta, SCALE, schedule)
}

fn oggp_plan(traffic: &TrafficMatrix, platform: &Platform, beta: f64) -> Schedule {
    oggp(&traffic.to_instance(platform, beta, SCALE).0)
}

fn testbed_workload(k: usize, seed: u64, hi_mb: u64) -> (TrafficMatrix, Platform) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let traffic = TrafficMatrix::uniform_mb(&mut rng, 10, 10, 10, hi_mb);
    (traffic, Platform::testbed(k))
}

fn lossy(seed: u64) -> SimConfig {
    SimConfig {
        tcp: TcpModel::default(),
        seed,
    }
}

#[test]
fn scheduled_execution_matches_analytic_cost() {
    // With an ideal transport and one flow per NIC per step, each step's
    // simulated duration equals its longest slice at NIC speed, i.e. the
    // analytic schedule cost (up to tick rounding).
    let (traffic, platform) = testbed_workload(5, 42, 30);
    let schedule = oggp_plan(&traffic, &platform, 0.05);
    let report = execute(
        SimTransport::for_platform(&platform),
        &traffic,
        &platform,
        0.05,
        &schedule,
    );
    let analytic = SCALE.to_seconds(schedule.cost());
    let rel = (report.total_seconds - analytic).abs() / analytic;
    assert!(
        rel < 0.02,
        "simulated {} vs analytic {analytic} (rel {rel})",
        report.total_seconds
    );
    assert_eq!(report.steps.len(), schedule.num_steps());
}

#[test]
fn barrier_accounting() {
    // β is paid once per step on top of the transport time, and nothing
    // else is: no backoff, no aborted step in a fault-free run.
    let (traffic, platform) = testbed_workload(5, 17, 20);
    let schedule = oggp_plan(&traffic, &platform, 0.1);
    let r = execute(
        SimTransport::for_platform(&platform),
        &traffic,
        &platform,
        0.1,
        &schedule,
    );
    assert_eq!(r.steps.len(), schedule.num_steps());
    let steps_sum: f64 = r.steps.iter().map(|s| s.seconds).sum();
    let barriers = 0.1 * r.steps.len() as f64;
    assert!((r.total_seconds - (steps_sum + barriers)).abs() < 1e-9);
    assert!(r
        .steps
        .iter()
        .all(|s| s.backoff_seconds == 0.0 && !s.timed_out));
}

#[test]
fn scheduled_beats_lossy_brute_force() {
    // The paper's headline: with the calibrated TCP model, GGP/OGGP
    // scheduling outperforms brute force, more so for larger k.
    let mut improvements = Vec::new();
    for k in [3, 7] {
        let (traffic, platform) = testbed_workload(k, 11, 50);
        let schedule = oggp_plan(&traffic, &platform, 0.05);
        let spec = NetworkSpec::from_platform(&platform);
        // Both arms run over the same lossy transport.
        let sched = execute(
            SimTransport::new(spec.clone(), lossy(5)),
            &traffic,
            &platform,
            0.05,
            &schedule,
        );
        let brute = brute_force(SimTransport::new(spec, lossy(5)), &traffic);
        let improvement = 1.0 - sched.total_seconds / brute;
        assert!(
            improvement > 0.02,
            "k={k}: scheduled {} not better than brute {brute}",
            sched.total_seconds
        );
        improvements.push(improvement);
    }
    assert!(
        improvements[1] > improvements[0],
        "gain should grow with k: {improvements:?}"
    );
}

#[test]
fn brute_force_nondeterministic_scheduled_deterministic() {
    let (traffic, platform) = testbed_workload(3, 13, 30);
    let spec = NetworkSpec::from_platform(&platform);
    let b1 = brute_force(SimTransport::new(spec.clone(), lossy(1)), &traffic);
    let b2 = brute_force(SimTransport::new(spec.clone(), lossy(2)), &traffic);
    assert_ne!(b1, b2);

    let schedule = oggp_plan(&traffic, &platform, 0.05);
    let run = |seed| {
        let transport = SimTransport::new(spec.clone(), lossy(seed));
        execute(transport, &traffic, &platform, 0.05, &schedule)
    };
    let (s1, s2) = (run(1), run(2));
    // Scheduled steps share no constraint, so jitter never applies: the
    // runs agree bit for bit, step by step.
    assert_eq!(s1.total_seconds, s2.total_seconds);
    let steps = |r: &ExecReport| r.steps.iter().map(|s| s.seconds).collect::<Vec<_>>();
    assert_eq!(steps(&s1), steps(&s2));
}

fn fast_fabric() -> FabricConfig {
    FabricConfig {
        out_bytes_per_s: 2e9,
        in_bytes_per_s: 2e9,
        backbone_bytes_per_s: 2e9,
        chunk_bytes: 64 * 1024,
    }
}

/// Keep volumes small: the MPI arm moves real bytes through real threads.
fn small_workload(salt: u64) -> (TrafficMatrix, Platform) {
    let mut traffic = TrafficMatrix::zeros(4, 4);
    for i in 0..4 {
        for j in 0..4 {
            traffic.set(i, j, 10_000 + ((i * 4 + j) as u64 + salt) * 1000);
        }
    }
    (traffic, Platform::new(4, 4, 100.0, 100.0, 200.0))
}

/// Runs `algo`'s schedule over the MPI arm on a dense and a sparse matrix
/// and checks that every byte lands where the matrix says.
fn delivers_every_byte(algo: Algo) {
    let (dense, platform) = small_workload(1);
    let mut sparse = TrafficMatrix::zeros(4, 4);
    sparse.set(0, 2, 5000);
    sparse.set(2, 0, 7000);
    for traffic in [&dense, &sparse] {
        let schedule = algo.plan(&traffic.to_instance(&platform, 0.0, SCALE).0);
        let transport = MpiTransport::new(4, 4, fast_fabric());
        let r = execute(transport, traffic, &platform, 0.0, &schedule);
        r.verify_against(traffic).unwrap();
        assert_eq!(r.delivered.total_bytes(), traffic.total_bytes());
        assert_eq!(r.steps.len(), schedule.num_steps(), "{algo}");
        assert!(r.total_seconds > 0.0);
    }
}

#[test]
fn scheduled_run_delivers_every_byte() {
    delivers_every_byte(Algo::Oggp);
}

#[test]
fn ggp_schedule_also_runs() {
    delivers_every_byte(Algo::Ggp);
}

#[test]
fn scheduled_run_counts_barrier_waits() {
    use telemetry::counters::{self, Counter};
    let (traffic, platform) = small_workload(5);
    let schedule = oggp_plan(&traffic, &platform, 0.0);
    // Counters are process-global and other tests run concurrently, so
    // assert with >= on a global delta.
    counters::enable();
    let before = counters::global_snapshot();
    let r = execute(
        MpiTransport::new(4, 4, fast_fabric()),
        &traffic,
        &platform,
        0.0,
        &schedule,
    );
    let delta = counters::global_snapshot().delta(&before);
    counters::disable();
    // Every rank passes one alignment barrier per step that moves bytes.
    let parties = (traffic.senders() + traffic.receivers()) as u64;
    let moving = r.steps.iter().filter(|s| !s.ops.is_empty()).count() as u64;
    assert!(moving > 0);
    assert!(
        delta.get(Counter::BarrierWaits) >= parties * moving,
        "expected >= {} barrier waits, got {delta:?}",
        parties * moving
    );
}

#[test]
fn shaped_fabric_slows_transfers() {
    // Same workload, 1000× slower fabric → measurably longer run.
    let (traffic, platform) = small_workload(4);
    let schedule = oggp_plan(&traffic, &platform, 0.0);
    let fast = execute(
        MpiTransport::new(4, 4, fast_fabric()),
        &traffic,
        &platform,
        0.0,
        &schedule,
    );
    let slow_cfg = FabricConfig {
        out_bytes_per_s: 2e6,
        in_bytes_per_s: 2e6,
        backbone_bytes_per_s: 4e6,
        chunk_bytes: 16 * 1024,
    };
    let slow = execute(
        MpiTransport::new(4, 4, slow_cfg),
        &traffic,
        &platform,
        0.0,
        &schedule,
    );
    assert!(
        slow.total_seconds > fast.total_seconds,
        "shaping had no effect: fast {} slow {}",
        fast.total_seconds,
        slow.total_seconds
    );
}

#[test]
fn faults_apply_to_the_mpi_arm() {
    // One transient failure and one node drop, seeded, over real bytes:
    // survivors still get exactly their bytes and every replan validates.
    let (traffic, platform) = small_workload(2);
    let spec = FaultSpec {
        transients: 1,
        node_drops: 1,
        slowdowns: 0,
        horizon: 4,
        ..FaultSpec::default()
    };
    let faults = FaultPlan::generate(6, 4, 4, &spec);
    assert_eq!(faults.event_count(), 2);
    let (_, report) = plan_and_execute_topo(
        &traffic,
        &Topology::from_platform(&platform),
        0.0,
        SCALE,
        MpiTransport::new(4, 4, fast_fabric()),
        faults,
        ExecConfig::default(),
    )
    .expect("the runtime recovers");
    report.verify_against(&traffic).unwrap();
    assert_eq!(report.faults_injected, 2, "both faults fired");
    assert!(report.retries > 0, "the transient failure was retried");
    assert!(report.replans >= 1, "the drop forces a replan");
    assert!(report
        .senders_alive
        .iter()
        .chain(&report.receivers_alive)
        .any(|&a| !a));
    for rec in &report.plans {
        rec.schedule.validate(&rec.instance).unwrap();
    }
}
