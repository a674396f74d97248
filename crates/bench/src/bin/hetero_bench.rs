//! Heterogeneous-platform campaign: plan and execute over topologies with
//! per-bottleneck preemption bounds, against the heterogeneity-aware lower
//! bound, with and without fault injection.
//!
//! Scenarios (each seeded, fully deterministic):
//!
//! * `homogeneous` — the paper's two-cluster platform expressed as a
//!   [`kpbs::Topology`]; planning through the topology path is asserted
//!   byte-identical to the [`kpbs::Platform`] oracle before anything runs.
//! * `star` — per-node NIC speeds drawn from a seeded range, one shared
//!   backbone (Marchal-style star).
//! * `two_backbone` — a fast and a slow cluster pair with disjoint
//!   backbones, each planned under its own `k_b`.
//!
//! Every scenario runs fault-free and, in the faulty arm, under a seeded
//! [`redistexec::FaultPlan`] with per-node NIC slowdowns and per-link
//! degradations. The gate fails (exit 1) on any validation error,
//! delivery-invariant violation, or a schedule whose cost beats its lower
//! bound. Results land in `BENCH_hetero.json` (cost-vs-bound ratios,
//! executed virtual seconds, fault counts).
//!
//! ```sh
//! cargo run --release -p bench --bin hetero_bench              # full campaign
//! cargo run --release -p bench --bin hetero_bench -- --smoke   # CI slice
//! cargo run --release -p bench --bin hetero_bench -- --out X   # custom path
//! ```

use bench::{arg_or, flag};
use kpbs::traffic::TickScale;
use kpbs::{oggp, plan_topology, Algo, Platform, Topology, TrafficMatrix};
use rand::{rngs::SmallRng, SeedableRng};
use redistexec::{plan_and_execute_topo, ExecConfig, FaultPlan, FaultSpec, SimTransport};

const BETA: f64 = 0.05;

struct ScenarioResult {
    name: String,
    faulty: bool,
    senders: usize,
    receivers: usize,
    links: usize,
    link_ks: Vec<usize>,
    plan_steps: usize,
    cost_ticks: u64,
    lower_bound_ticks: u64,
    ratio: f64,
    exec_seconds: f64,
    faults_injected: u64,
    replans: u64,
}

fn die(msg: &str) -> ! {
    eprintln!("hetero_bench: {msg}");
    std::process::exit(1);
}

/// Runs one scenario end to end: plan, check the bound, execute (fault-free
/// or under the seeded fault plan), verify delivery.
fn run_scenario(
    name: &str,
    topo: &Topology,
    traffic: &TrafficMatrix,
    faulty: bool,
    fault_seed: u64,
) -> ScenarioResult {
    topo.validate()
        .unwrap_or_else(|e| die(&format!("{name}: invalid topology: {e}")));
    let plan = plan_topology(traffic, topo, BETA, TickScale::MILLIS, Algo::Oggp)
        .unwrap_or_else(|e| die(&format!("{name}: planning failed: {e}")));
    plan.schedule
        .validate(&plan.instance)
        .unwrap_or_else(|e| die(&format!("{name}: composed schedule invalid: {e}")));
    if plan.schedule.cost() < plan.lower_bound {
        die(&format!(
            "{name}: cost {} beats the lower bound {}",
            plan.schedule.cost(),
            plan.lower_bound
        ));
    }

    let faults = if faulty {
        let spec = FaultSpec {
            transients: 4,
            node_drops: 1,
            slowdowns: 1,
            nic_slowdowns: 2,
            link_degradations: 2,
            links: topo.links.len(),
            ..FaultSpec::default()
        };
        FaultPlan::generate(fault_seed, topo.senders(), topo.receivers(), &spec)
    } else {
        FaultPlan::none()
    };
    let transport = SimTransport::for_topology(topo)
        .unwrap_or_else(|e| die(&format!("{name}: transport: {e}")));
    let (_, report) = plan_and_execute_topo(
        traffic,
        topo,
        BETA,
        TickScale::MILLIS,
        transport,
        faults,
        ExecConfig::default(),
    )
    .unwrap_or_else(|e| die(&format!("{name}: execution failed: {e}")));
    report
        .verify_against(traffic)
        .unwrap_or_else(|e| die(&format!("{name}: delivery invariant violated: {e}")));
    for rec in &report.plans {
        rec.schedule
            .validate(&rec.instance)
            .unwrap_or_else(|e| die(&format!("{name}: spliced schedule invalid: {e}")));
    }

    let ratio = if plan.lower_bound > 0 {
        plan.schedule.cost() as f64 / plan.lower_bound as f64
    } else {
        1.0
    };
    ScenarioResult {
        name: name.to_string(),
        faulty,
        senders: topo.senders(),
        receivers: topo.receivers(),
        links: topo.links.len(),
        link_ks: topo.link_ks(),
        plan_steps: plan.schedule.num_steps(),
        cost_ticks: plan.schedule.cost(),
        lower_bound_ticks: plan.lower_bound,
        ratio,
        exec_seconds: report.total_seconds,
        faults_injected: report.faults_injected,
        replans: report.replans,
    }
}

fn main() {
    let out: String = arg_or("out", "BENCH_hetero.json".to_string());
    let smoke = flag("smoke");

    // Scenario shapes. Smoke keeps one seed per scenario; the full
    // campaign sweeps several fault seeds.
    let n = if smoke { 4 } else { 6 };
    let fault_seeds: &[u64] = if smoke { &[11] } else { &[11, 12, 13, 14] };

    let mut rng = SmallRng::seed_from_u64(0x7e7e);

    // Homogeneous oracle: the two-cluster topology must plan byte-identically
    // to the Platform path before it is allowed into the campaign.
    let platform = Platform::new(n, n, 100.0, 100.0, 300.0);
    let homo = Topology::from_platform(&platform);
    let homo_traffic = kpbs::instances::routable_traffic(&mut rng, &homo, 20);
    {
        let plan = plan_topology(&homo_traffic, &homo, BETA, TickScale::MILLIS, Algo::Oggp)
            .unwrap_or_else(|e| die(&format!("homogeneous: planning failed: {e}")));
        let (inst, endpoints) = homo_traffic.to_instance(&platform, BETA, TickScale::MILLIS);
        if plan.schedule != oggp(&inst) || plan.endpoints != endpoints {
            die("homogeneous topology plan diverged from the Platform oracle");
        }
    }

    let star = kpbs::instances::star_topology(&mut rng, n, n, 40.0, 160.0, 250.0);
    let star_traffic = kpbs::instances::routable_traffic(&mut rng, &star, 20);

    let twob = kpbs::instances::two_backbone_topology(n / 2, 100.0, 40.0, 200.0, 60.0);
    let twob_traffic = kpbs::instances::routable_traffic(&mut rng, &twob, 20);

    let scenarios: [(&str, &Topology, &TrafficMatrix); 3] = [
        ("homogeneous", &homo, &homo_traffic),
        ("star", &star, &star_traffic),
        ("two_backbone", &twob, &twob_traffic),
    ];

    let mut results: Vec<ScenarioResult> = Vec::new();
    for (name, topo, traffic) in scenarios {
        results.push(run_scenario(name, topo, traffic, false, 0));
        for &seed in fault_seeds {
            results.push(run_scenario(name, topo, traffic, true, seed));
        }
    }

    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            let ks: Vec<String> = r.link_ks.iter().map(|k| k.to_string()).collect();
            format!(
                "    {{\n      \"scenario\": \"{}\",\n      \"faulty\": {},\n      \
                 \"senders\": {},\n      \"receivers\": {},\n      \"links\": {},\n      \
                 \"link_ks\": [{}],\n      \"plan_steps\": {},\n      \
                 \"cost_ticks\": {},\n      \"lower_bound_ticks\": {},\n      \
                 \"ratio\": {:.6},\n      \"exec_seconds\": {:.6},\n      \
                 \"faults_injected\": {},\n      \"replans\": {}\n    }}",
                r.name,
                r.faulty,
                r.senders,
                r.receivers,
                r.links,
                ks.join(", "),
                r.plan_steps,
                r.cost_ticks,
                r.lower_bound_ticks,
                r.ratio,
                r.exec_seconds,
                r.faults_injected,
                r.replans,
            )
        })
        .collect();
    let worst = results.iter().map(|r| r.ratio).fold(1.0f64, f64::max);
    let json = format!(
        "{{\n  \"campaign\": \"hetero_topologies_v1\",\n  \"smoke\": {smoke},\n  \
         \"beta_seconds\": {BETA:.4},\n  \"worst_ratio\": {worst:.6},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );

    if smoke {
        // CI slice: validate everything (already done above), print the
        // table, leave the checked-in full-campaign baseline untouched.
        print!("{json}");
        eprintln!(
            "hetero_bench: smoke slice passed ({} runs, worst ratio {worst:.4})",
            results.len()
        );
    } else {
        std::fs::write(&out, &json).expect("write campaign file");
        print!("{json}");
        eprintln!(
            "hetero_bench: {} runs verified, worst ratio {worst:.4} -> {out}",
            results.len()
        );
    }
}
