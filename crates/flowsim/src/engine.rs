//! The discrete-event loop: advance fluid flows between rate-changing
//! events (flow completions and backbone-profile breakpoints).

use crate::fairshare::max_min_rates_routed;
use crate::flow::{Flow, FlowResult};
use crate::network::{NetworkSpec, BYTES_PER_S_PER_MBPS};
use crate::tcp::TcpModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use telemetry::counters::{self, Counter};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Transport behaviour (use [`TcpModel::ideal`] for a pure fluid model).
    pub tcp: TcpModel,
    /// Seed for the jitter of contended flows.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            tcp: TcpModel::ideal(),
            seed: 0,
        }
    }
}

/// Outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-flow completion, in input order.
    pub flows: Vec<FlowResult>,
    /// Completion time of the last flow, seconds.
    pub makespan: f64,
}

/// The simulator.
#[derive(Debug, Clone)]
pub struct Engine {
    spec: NetworkSpec,
    config: SimConfig,
}

impl Engine {
    /// Creates an engine over a validated network.
    ///
    /// # Panics
    ///
    /// Panics if the network fails validation.
    pub fn new(spec: NetworkSpec, config: SimConfig) -> Self {
        spec.validate().expect("invalid network spec");
        Engine { spec, config }
    }

    /// The network this engine simulates.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Simulates all `flows` starting simultaneously at time 0. Returns
    /// completion times; the relative order of rate recomputations is fully
    /// deterministic given the seed.
    ///
    /// ```
    /// use flowsim::{Engine, Flow, NetworkSpec, SimConfig};
    ///
    /// // One 12.5 MB flow over a 100 Mbit/s path takes one second.
    /// let spec = NetworkSpec::uniform(1, 1, 100.0, 100.0, 100.0);
    /// let engine = Engine::new(spec, SimConfig::default());
    /// let result = engine.run(&[Flow::new(0, 0, 12_500_000.0)]);
    /// assert!((result.makespan - 1.0).abs() < 1e-6);
    /// ```
    pub fn run(&self, flows: &[Flow]) -> RunResult {
        let _span = telemetry::span("flowsim.run");
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let run_bias = self.config.tcp.draw_run_bias(&mut rng);
        let n = flows.len();
        let mut remaining: Vec<f64> = flows.iter().map(|f| f.bytes).collect();
        let mut finish: Vec<f64> = vec![0.0; n];
        let mut done = vec![false; n];
        let mut active = n;
        let mut now = 0.0f64;

        // Safety valve: each iteration completes a flow or crosses a
        // capacity breakpoint; bound iterations generously anyway.
        let mut guard = 0usize;
        let guard_max = 10 * n + 10_000;

        while active > 0 {
            counters::incr(Counter::FlowsimEvents);
            guard += 1;
            assert!(guard <= guard_max, "event loop failed to converge");

            let pairs: Vec<(usize, usize)> = flows
                .iter()
                .zip(&done)
                .filter(|(_, &d)| !d)
                .map(|(f, _)| (f.src, f.dst))
                .collect();
            let idx: Vec<usize> = (0..n).filter(|&i| !done[i]).collect();
            let links_now: Vec<f64> = (0..self.spec.num_links())
                .map(|l| self.spec.link_profile(l).at(now))
                .collect();
            let link_of: Vec<usize> = pairs
                .iter()
                .map(|&(s, d)| self.spec.link_of(s, d))
                .collect();
            let alloc = max_min_rates_routed(
                &pairs,
                &self.spec.nic_out,
                &self.spec.nic_in,
                &links_now,
                &link_of,
            );

            // Effective (TCP-adjusted) rates in bytes/s.
            let mut rates = vec![0.0f64; n];
            for ((a, &i), &l) in alloc.iter().zip(&idx).zip(&link_of) {
                let solo = self.spec.nic_out[flows[i].src]
                    .min(self.spec.nic_in[flows[i].dst])
                    .min(links_now[l]);
                let eff = self.config.tcp.effective_rate(*a, solo, run_bias, &mut rng);
                rates[i] = eff * BYTES_PER_S_PER_MBPS;
            }

            // Time to the next event: earliest completion or profile change.
            let mut dt = f64::INFINITY;
            for &i in &idx {
                dt = dt.min(remaining[i] / rates[i]);
            }
            for l in 0..self.spec.num_links() {
                if let Some(change) = self.spec.link_profile(l).next_change_after(now) {
                    dt = dt.min(change - now);
                }
            }
            debug_assert!(dt.is_finite() && dt > 0.0);

            now += dt;
            for &i in &idx {
                remaining[i] -= rates[i] * dt;
                // Tolerate float dust when a completion and a breakpoint
                // coincide.
                if remaining[i] <= 1e-6 {
                    remaining[i] = 0.0;
                    done[i] = true;
                    finish[i] = now;
                    active -= 1;
                }
            }
        }

        RunResult {
            flows: flows
                .iter()
                .zip(&finish)
                .map(|(&flow, &finish)| FlowResult { flow, finish })
                .collect(),
            makespan: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::CapacityProfile;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-6 * b.abs().max(1.0)
    }

    #[test]
    fn single_flow_timing() {
        // 12.5 MB at 100 Mbit/s (= 12.5 MB/s) takes 1 s.
        let spec = NetworkSpec::uniform(1, 1, 100.0, 100.0, 100.0);
        let e = Engine::new(spec, SimConfig::default());
        let r = e.run(&[Flow::new(0, 0, 12_500_000.0)]);
        assert!(close(r.makespan, 1.0), "makespan {}", r.makespan);
    }

    #[test]
    fn backbone_bottleneck_shares() {
        // Two disjoint flows, backbone 100: 50 Mbit/s each.
        let spec = NetworkSpec::uniform(2, 2, 100.0, 100.0, 100.0);
        let e = Engine::new(spec, SimConfig::default());
        let r = e.run(&[Flow::new(0, 0, 6_250_000.0), Flow::new(1, 1, 6_250_000.0)]);
        // 6.25 MB at 50 Mbit/s (6.25 MB/s) = 1 s each.
        assert!(close(r.makespan, 1.0), "makespan {}", r.makespan);
    }

    #[test]
    fn rates_rebalance_after_completion() {
        // Unequal flows: after the small one finishes, the big one speeds up.
        let spec = NetworkSpec::uniform(2, 2, 100.0, 100.0, 100.0);
        let e = Engine::new(spec, SimConfig::default());
        let small = 6_250_000.0; // 1 s at 50 Mbit/s
        let big = 2.0 * small;
        let r = e.run(&[Flow::new(0, 0, small), Flow::new(1, 1, big)]);
        // Phase 1: both at 50 for 1 s (small done, big has 6.25 MB left).
        // Phase 2: big alone at 100 → 0.5 s. Total 1.5 s.
        assert!(close(r.flows[0].finish, 1.0));
        assert!(close(r.flows[1].finish, 1.5), "big {}", r.flows[1].finish);
        assert!(close(r.makespan, 1.5));
    }

    #[test]
    fn run_counts_events_and_fairshare_rounds() {
        // Counters are process-global and other tests may add to them
        // concurrently, so assert with >= on global deltas.
        counters::enable();
        let before = counters::global_snapshot();
        let spec = NetworkSpec::uniform(2, 2, 100.0, 100.0, 100.0);
        let e = Engine::new(spec, SimConfig::default());
        let r = e.run(&[Flow::new(0, 0, 1_000_000.0), Flow::new(1, 1, 2_000_000.0)]);
        let delta = counters::global_snapshot().delta(&before);
        counters::disable();
        assert_eq!(r.flows.len(), 2);
        // Two flows with distinct finish times → at least two events, each
        // recomputing the fair shares at least once.
        assert!(delta.get(Counter::FlowsimEvents) >= 2, "{delta:?}");
        assert!(delta.get(Counter::FairshareRounds) >= 2, "{delta:?}");
    }

    #[test]
    fn time_varying_backbone() {
        // Backbone halves at t = 0.5: one 12.5 MB flow on 100 Mbit NICs.
        // Phase 1: 0.5 s at 12.5 MB/s = 6.25 MB done; phase 2 at 6.25 MB/s
        // needs 1 s more. Total 1.5 s.
        let spec = NetworkSpec {
            nic_out: vec![100.0],
            nic_in: vec![100.0],
            backbone: CapacityProfile::Piecewise(vec![(0.0, 100.0), (0.5, 50.0)]),
            extra_links: Vec::new(),
            route: Vec::new(),
        };
        let e = Engine::new(spec, SimConfig::default());
        let r = e.run(&[Flow::new(0, 0, 12_500_000.0)]);
        assert!(close(r.makespan, 1.5), "makespan {}", r.makespan);
    }

    #[test]
    fn multi_backbone_flows_use_their_own_link() {
        // A two-backbone topology: fast pairs on a fat link, slow pairs on
        // a thin one. Flows crossing different backbones must not share.
        let topo = kpbs::instances::two_backbone_topology(1, 100.0, 100.0, 100.0, 25.0);
        let spec = NetworkSpec::from_topology(&topo).unwrap();
        let e = Engine::new(spec, SimConfig::default());
        // 12.5 MB each: link 0 at 100 Mbit/s → 1 s; link 1 at 25 → 4 s.
        let r = e.run(&[Flow::new(0, 0, 12_500_000.0), Flow::new(1, 1, 12_500_000.0)]);
        assert!(close(r.flows[0].finish, 1.0), "fast {}", r.flows[0].finish);
        assert!(close(r.flows[1].finish, 4.0), "slow {}", r.flows[1].finish);

        // The same two flows forced over one shared 25 Mbit/s backbone
        // would instead contend: both at 12.5 until t = 8.
        let shared = NetworkSpec::uniform(2, 2, 100.0, 100.0, 25.0);
        let r = Engine::new(shared, SimConfig::default())
            .run(&[Flow::new(0, 0, 12_500_000.0), Flow::new(1, 1, 12_500_000.0)]);
        assert!(close(r.makespan, 8.0), "shared {}", r.makespan);
    }

    #[test]
    fn ideal_runs_deterministic_across_seeds() {
        let spec = NetworkSpec::testbed(3);
        let flows: Vec<Flow> = (0..10)
            .flat_map(|s| (0..10).map(move |d| Flow::new(s, d, 1_000_000.0)))
            .collect();
        let r1 = Engine::new(
            spec.clone(),
            SimConfig {
                seed: 1,
                ..Default::default()
            },
        )
        .run(&flows);
        let r2 = Engine::new(
            spec,
            SimConfig {
                seed: 2,
                ..Default::default()
            },
        )
        .run(&flows);
        assert_eq!(r1.makespan, r2.makespan);
    }

    #[test]
    fn tcp_jitter_varies_with_seed() {
        let spec = NetworkSpec::testbed(3);
        let flows: Vec<Flow> = (0..10)
            .flat_map(|s| (0..10).map(move |d| Flow::new(s, d, 1_000_000.0)))
            .collect();
        let cfg = |seed| SimConfig {
            tcp: TcpModel::default(),
            seed,
        };
        let r1 = Engine::new(spec.clone(), cfg(1)).run(&flows);
        let r2 = Engine::new(spec, cfg(2)).run(&flows);
        assert_ne!(r1.makespan, r2.makespan);
        // Within a sane band of each other.
        let ratio = r1.makespan / r2.makespan;
        assert!(ratio > 0.7 && ratio < 1.4, "ratio {ratio}");
    }

    #[test]
    fn no_flows_zero_makespan() {
        let spec = NetworkSpec::uniform(1, 1, 100.0, 100.0, 100.0);
        let e = Engine::new(spec, SimConfig::default());
        let r = e.run(&[]);
        assert_eq!(r.makespan, 0.0);
        assert!(r.flows.is_empty());
    }
}
