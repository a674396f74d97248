//! Executes the paper's brute-force TCP arm (Section 5.2) over the
//! simulated network: every message becomes a flow at time 0 and the
//! transport model sorts it out. This arm executes no schedule; scheduled
//! runs go through `redistexec::Runtime` over its `SimTransport`, which
//! runs each step's flows on the same [`Engine`].

use crate::engine::{Engine, RunResult, SimConfig};
use crate::flow::Flow;
use crate::network::NetworkSpec;
use kpbs::TrafficMatrix;

/// Runs the brute-force TCP arm and returns its makespan in seconds: every
/// non-zero message of `traffic` starts at time 0; the transport model in
/// `config` governs sharing, losses and jitter. No barriers are paid.
pub fn brute_force_time(traffic: &TrafficMatrix, spec: &NetworkSpec, config: &SimConfig) -> f64 {
    brute_force_run(traffic, spec, config).makespan
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
    use kpbs::Platform;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn brute_force_with_ideal_tcp_equals_volume_over_backbone() {
        // Ideal fluid transport: the backbone is the only binding
        // constraint of the saturated testbed, so the makespan is close to
        // total volume / backbone (equal shares drain messages together,
        // freeing capacity for the rest).
        let mut rng = SmallRng::seed_from_u64(7);
        let traffic = TrafficMatrix::uniform_mb(&mut rng, 10, 10, 10, 20);
        let spec = NetworkSpec::from_platform(&Platform::testbed(3));
        let seconds = brute_force_time(&traffic, &spec, &SimConfig::default());
        let volume_bytes = traffic.total_bytes() as f64;
        let floor = volume_bytes / (100.0 * 1e6 / 8.0);
        assert!(seconds >= floor * 0.999);
        assert!(seconds <= floor * 1.25, "brute {seconds} vs floor {floor}");
    }
}
