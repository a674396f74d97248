//! Executes redistribution strategies over the simulated network: the
//! paper's two experimental arms (Section 5.2).
//!
//! * [`scheduled_time`] — the GGP/OGGP arm: the schedule's steps run one
//!   after another, separated by a barrier; each step's slices start
//!   simultaneously and the step lasts until its last slice completes; every
//!   step additionally pays the setup delay β.
//! * [`brute_force_time`] — the TCP arm: every message becomes a flow at
//!   time 0 and the transport model sorts it out.

use crate::engine::{Engine, RunResult, SimConfig};
use crate::flow::Flow;
use crate::network::NetworkSpec;
use kpbs::{Instance, Schedule, TrafficMatrix};

/// Outcome of executing one redistribution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// End-to-end redistribution time in seconds (including barriers).
    pub total_seconds: f64,
    /// Duration of each communication step (empty for brute force).
    pub step_seconds: Vec<f64>,
    /// Number of synchronised steps (0 for brute force).
    pub num_steps: usize,
    /// Total time spent in setup/barriers.
    pub barrier_seconds: f64,
}

/// Runs `schedule` over `spec`: for each step, the slices of its transfers
/// become simultaneous flows; the step ends when the last one completes;
/// `beta_seconds` is charged per step.
///
/// `inst` and `endpoints` must come from the same
/// [`TrafficMatrix::to_instance`] call that produced the schedule, so that
/// edge ids, endpoints and byte volumes line up.
pub fn scheduled_time(
    traffic: &TrafficMatrix,
    inst: &Instance,
    endpoints: &[(usize, usize)],
    schedule: &Schedule,
    spec: &NetworkSpec,
    beta_seconds: f64,
    config: &SimConfig,
) -> ExecutionReport {
    let _span = telemetry::span("flowsim.scheduled_time");
    // Apportion each edge's bytes across its slices exactly, proportional to
    // the slice durations.
    let bytes: Vec<u64> = endpoints.iter().map(|&(s, d)| traffic.get(s, d)).collect();
    let slices = schedule.byte_slices(inst, &bytes);

    let engine = Engine::new(spec.clone(), config.clone());
    let mut step_seconds = Vec::with_capacity(schedule.num_steps());
    let mut total = 0.0f64;
    for step in slices {
        let _step_span = telemetry::span("flowsim.step");
        let flows: Vec<Flow> = step
            .into_iter()
            .map(|(e, b)| {
                let (s, d) = endpoints[e.index()];
                Flow::new(s, d, b as f64)
            })
            .collect();
        let dur = if flows.is_empty() {
            0.0
        } else {
            engine.run(&flows).makespan
        };
        step_seconds.push(dur);
        total += beta_seconds + dur;
    }
    ExecutionReport {
        total_seconds: total,
        num_steps: step_seconds.len(),
        barrier_seconds: beta_seconds * step_seconds.len() as f64,
        step_seconds,
    }
}

/// Runs the brute-force TCP arm: every non-zero message of `traffic` starts
/// at time 0; the transport model in `config` governs sharing, losses and
/// jitter. No barriers are paid.
pub fn brute_force_time(
    traffic: &TrafficMatrix,
    spec: &NetworkSpec,
    config: &SimConfig,
) -> ExecutionReport {
    let result = brute_force_run(traffic, spec, config);
    ExecutionReport {
        total_seconds: result.makespan,
        step_seconds: Vec::new(),
        num_steps: 0,
        barrier_seconds: 0.0,
    }
}

/// Like [`brute_force_time`] but returning the full [`RunResult`] (per-flow
/// completions, optional trace).
pub fn brute_force_run(
    traffic: &TrafficMatrix,
    spec: &NetworkSpec,
    config: &SimConfig,
) -> RunResult {
    let _span = telemetry::span("flowsim.brute_force");
    let mut flows = Vec::with_capacity(traffic.message_count());
    for s in 0..traffic.senders() {
        for d in 0..traffic.receivers() {
            let b = traffic.get(s, d);
            if b > 0 {
                flows.push(Flow::new(s, d, b as f64));
            }
        }
    }
    Engine::new(spec.clone(), config.clone()).run(&flows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpModel;
    use kpbs::traffic::TickScale;
    use kpbs::{oggp, Platform};
    use rand::{rngs::SmallRng, SeedableRng};

    fn testbed_workload(k: usize, seed: u64, hi_mb: u64) -> (TrafficMatrix, Platform) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let traffic = TrafficMatrix::uniform_mb(&mut rng, 10, 10, 10, hi_mb);
        (traffic, Platform::testbed(k))
    }

    #[test]
    fn scheduled_execution_matches_analytic_cost() {
        // With an ideal transport and one flow per NIC per step, each step's
        // simulated duration equals its longest slice at NIC speed, i.e. the
        // analytic schedule cost (up to tick rounding).
        let (traffic, platform) = testbed_workload(5, 42, 30);
        let scale = TickScale::MILLIS;
        let beta = 0.05;
        let (inst, endpoints) = traffic.to_instance(&platform, beta, scale);
        let schedule = oggp(&inst);
        schedule.validate(&inst).unwrap();
        let spec = NetworkSpec::from_platform(&platform);
        let report = scheduled_time(
            &traffic,
            &inst,
            &endpoints,
            &schedule,
            &spec,
            beta,
            &SimConfig::default(),
        );
        let analytic = scale.to_seconds(schedule.cost());
        let rel = (report.total_seconds - analytic).abs() / analytic;
        assert!(
            rel < 0.02,
            "simulated {} vs analytic {} (rel {rel})",
            report.total_seconds,
            analytic
        );
        assert_eq!(report.num_steps, schedule.num_steps());
    }

    #[test]
    fn brute_force_with_ideal_tcp_equals_volume_over_backbone() {
        // Ideal fluid transport: the backbone is the only binding
        // constraint of the saturated testbed, so the makespan is close to
        // total volume / backbone (equal shares drain messages together,
        // freeing capacity for the rest).
        let (traffic, platform) = testbed_workload(3, 7, 20);
        let spec = NetworkSpec::from_platform(&platform);
        let report = brute_force_time(&traffic, &spec, &SimConfig::default());
        let volume_bytes = traffic.total_bytes() as f64;
        let floor = volume_bytes / (100.0 * 1e6 / 8.0);
        assert!(report.total_seconds >= floor * 0.999);
        assert!(
            report.total_seconds <= floor * 1.25,
            "brute {} vs floor {floor}",
            report.total_seconds
        );
    }

    #[test]
    fn scheduled_beats_lossy_brute_force() {
        // The paper's headline: with the calibrated TCP model, GGP/OGGP
        // scheduling outperforms brute force, more so for larger k.
        let mut improvements = Vec::new();
        for k in [3, 7] {
            let (traffic, platform) = testbed_workload(k, 11, 50);
            let scale = TickScale::MILLIS;
            let beta = 0.05;
            let (inst, endpoints) = traffic.to_instance(&platform, beta, scale);
            let schedule = oggp(&inst);
            let spec = NetworkSpec::from_platform(&platform);
            // Both arms run over the same lossy transport.
            let lossy = SimConfig {
                tcp: TcpModel::default(),
                seed: 5,
                record_trace: false,
            };
            let sched = scheduled_time(&traffic, &inst, &endpoints, &schedule, &spec, beta, &lossy);
            let brute = brute_force_time(&traffic, &spec, &lossy);
            let improvement = 1.0 - sched.total_seconds / brute.total_seconds;
            assert!(
                improvement > 0.02,
                "k={k}: scheduled {} not better than brute {}",
                sched.total_seconds,
                brute.total_seconds
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
        let lossy = |seed| SimConfig {
            tcp: TcpModel::default(),
            seed,
            record_trace: false,
        };
        let b1 = brute_force_time(&traffic, &spec, &lossy(1)).total_seconds;
        let b2 = brute_force_time(&traffic, &spec, &lossy(2)).total_seconds;
        assert_ne!(b1, b2);

        let scale = TickScale::MILLIS;
        let (inst, endpoints) = traffic.to_instance(&platform, 0.05, scale);
        let schedule = oggp(&inst);
        let s1 = scheduled_time(
            &traffic,
            &inst,
            &endpoints,
            &schedule,
            &spec,
            0.05,
            &lossy(1),
        );
        let s2 = scheduled_time(
            &traffic,
            &inst,
            &endpoints,
            &schedule,
            &spec,
            0.05,
            &lossy(2),
        );
        assert_eq!(
            s1.total_seconds, s2.total_seconds,
            "scheduled steps share no constraint, so jitter never applies"
        );
    }

    #[test]
    fn barrier_accounting() {
        let (traffic, platform) = testbed_workload(5, 17, 20);
        let scale = TickScale::MILLIS;
        let (inst, endpoints) = traffic.to_instance(&platform, 0.1, scale);
        let schedule = oggp(&inst);
        let spec = NetworkSpec::from_platform(&platform);
        let r = scheduled_time(
            &traffic,
            &inst,
            &endpoints,
            &schedule,
            &spec,
            0.1,
            &SimConfig::default(),
        );
        assert!((r.barrier_seconds - 0.1 * r.num_steps as f64).abs() < 1e-9);
        let steps_sum: f64 = r.step_seconds.iter().sum();
        assert!((r.total_seconds - (steps_sum + r.barrier_seconds)).abs() < 1e-9);
    }
}
