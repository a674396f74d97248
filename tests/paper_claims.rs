//! Scaled-down versions of every experiment in the paper's Section 5,
//! asserting the qualitative *shapes* the paper reports. The full-size
//! harnesses live in `crates/bench/src/bin/`; these keep the claims under
//! continuous test.

use rand::{rngs::SmallRng, SeedableRng};
use redistribute::flowsim::{NetworkSpec, SimConfig, TcpModel};
use redistribute::kpbs::stats::{run_campaign, CampaignConfig, KChoice};
use redistribute::kpbs::{Platform, Topology, TrafficMatrix};
use redistribute::redistexec::{brute_force, SimTransport};
use redistribute::{Algo, Planner};

/// Figure 7 shape: small weights (U[1,20], β = 1). OGGP's average beats
/// GGP's; worst cases stay well under the 2-approximation ceiling.
#[test]
fn figure7_shape() {
    for k in [2, 5, 10] {
        let cfg = CampaignConfig {
            trials: 120,
            max_nodes_per_side: 12,
            max_edges: 100,
            weight_range: (1, 20),
            beta: 1,
            k: KChoice::Fixed(k),
            seed: 100 + k as u64,
        };
        let r = run_campaign(&cfg);
        assert!(r.oggp.mean <= r.ggp.mean, "k={k}");
        assert!(r.oggp.mean < 1.2, "k={k}: OGGP avg {}", r.oggp.mean);
        assert!(r.ggp.max < 1.6, "k={k}: GGP max {}", r.ggp.max);
        assert!(r.ggp.min >= 1.0 && r.oggp.min >= 1.0);
        // The paper: OGGP's worst case below GGP's average is the headline;
        // at small trial counts allow a whisker of slack.
        assert!(
            r.oggp.max <= r.ggp.max + 1e-9,
            "k={k}: OGGP max {} above GGP max {}",
            r.oggp.max,
            r.ggp.max
        );
    }
}

/// Figure 8 shape: large weights (U[1,10000]) → both algorithms within a
/// fraction of a percent of the lower bound.
#[test]
fn figure8_shape() {
    let cfg = CampaignConfig {
        trials: 60,
        max_nodes_per_side: 12,
        max_edges: 100,
        weight_range: (1, 10_000),
        beta: 1,
        k: KChoice::Random,
        seed: 8,
    };
    let r = run_campaign(&cfg);
    assert!(r.ggp.max < 1.02, "GGP max {}", r.ggp.max);
    assert!(r.oggp.max < 1.02, "OGGP max {}", r.oggp.max);
}

/// Figure 9 shape: ratios rise while β is comparable to the weights, then
/// fall once β dominates the bound.
#[test]
fn figure9_shape() {
    let at_beta = |beta| {
        let cfg = CampaignConfig {
            trials: 120,
            max_nodes_per_side: 12,
            max_edges: 100,
            weight_range: (1, 20),
            beta,
            k: KChoice::Random,
            seed: 9,
        };
        run_campaign(&cfg)
    };
    let low = at_beta(0);
    let mid = at_beta(8);
    let high = at_beta(100);
    assert!(
        mid.ggp.mean > low.ggp.mean,
        "ratio should rise with moderate beta: {} vs {}",
        mid.ggp.mean,
        low.ggp.mean
    );
    assert!(
        high.ggp.mean < mid.ggp.mean,
        "ratio should fall when beta dominates: {} vs {}",
        high.ggp.mean,
        mid.ggp.mean
    );
    assert!(mid.oggp.mean <= mid.ggp.mean);
}

/// Figures 10–11 shape: scheduled beats lossy brute force, the improvement
/// is in the 2–35 % band, and grows with k.
#[test]
fn figures_10_11_shape() {
    let mut gains = Vec::new();
    for k in [3usize, 7] {
        let platform = Platform::testbed(k);
        let spec = NetworkSpec::from_platform(&platform);
        let mut rng = SmallRng::seed_from_u64(1100 + k as u64);
        let traffic = TrafficMatrix::uniform_mb(&mut rng, 10, 10, 10, 40);
        let plan = Planner::new(Algo::Oggp)
            .plan(&traffic, &Topology::from_platform(&platform))
            .unwrap();
        let lossy = SimConfig {
            tcp: TcpModel::default(),
            seed: 0,
        };
        let brute = brute_force(SimTransport::new(spec.clone(), lossy.clone()), &traffic);
        let sched = plan.simulate(&spec, &lossy).total_seconds;
        let gain = 1.0 - sched / brute;
        assert!(
            (0.02..0.35).contains(&gain),
            "k={k}: gain {gain} outside the paper's band"
        );
        gains.push(gain);
    }
    assert!(gains[1] > gains[0], "gain should grow with k: {gains:?}");
}

/// Section 5.2 in-text: OGGP needs roughly half the steps of GGP on the
/// testbed workloads, yet lands within a hair of GGP's total time.
#[test]
fn steps_and_time_claim() {
    let platform = Platform::testbed(5);
    let spec = NetworkSpec::from_platform(&platform);
    let mut rng = SmallRng::seed_from_u64(55);
    let traffic = TrafficMatrix::uniform_mb(&mut rng, 10, 10, 10, 40);
    let pg = Planner::new(Algo::Ggp)
        .plan(&traffic, &Topology::from_platform(&platform))
        .unwrap();
    let po = Planner::new(Algo::Oggp)
        .plan(&traffic, &Topology::from_platform(&platform))
        .unwrap();
    let (sg, so) = (
        pg.topo_plan.schedule.num_steps(),
        po.topo_plan.schedule.num_steps(),
    );
    assert!((so as f64) < 0.7 * sg as f64, "OGGP {so} steps vs GGP {sg}");
    let cfg = SimConfig::default();
    let tg = pg.simulate(&spec, &cfg).total_seconds;
    let to = po.simulate(&spec, &cfg).total_seconds;
    let rel = (tg - to).abs() / tg;
    assert!(rel < 0.1, "GGP {tg} vs OGGP {to}: should be close");
}

/// Section 5.2 in-text: brute force varies run to run; the scheduled arm is
/// bit-for-bit deterministic.
#[test]
fn determinism_claim() {
    let platform = Platform::testbed(3);
    let spec = NetworkSpec::from_platform(&platform);
    let mut rng = SmallRng::seed_from_u64(66);
    let traffic = TrafficMatrix::uniform_mb(&mut rng, 10, 10, 10, 30);
    let plan = Planner::new(Algo::Oggp)
        .plan(&traffic, &Topology::from_platform(&platform))
        .unwrap();

    let mut brutes = Vec::new();
    let mut scheds = Vec::new();
    for seed in 0..6 {
        let cfg = SimConfig {
            tcp: TcpModel::default(),
            seed,
        };
        brutes.push(brute_force(
            SimTransport::new(spec.clone(), cfg.clone()),
            &traffic,
        ));
        scheds.push(plan.simulate(&spec, &cfg).total_seconds);
    }
    let bmin = brutes.iter().cloned().fold(f64::INFINITY, f64::min);
    let bmax = brutes.iter().cloned().fold(0.0, f64::max);
    assert!(bmax > bmin, "brute force should jitter across seeds");
    assert!(
        (bmax - bmin) / bmin < 0.25,
        "jitter {} too large",
        (bmax - bmin) / bmin
    );
    assert!(
        scheds.windows(2).all(|w| w[0] == w[1]),
        "scheduled arm must not depend on the seed"
    );
}
