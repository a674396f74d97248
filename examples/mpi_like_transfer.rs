//! Run a schedule and the brute-force baseline on the threaded MPI-like
//! runtime: ranks are threads, the NICs and backbone are token buckets (the
//! `rshaper` stand-in), sends are synchronous and each step is one
//! barrier-aligned run of the world — the in-process version of the paper's
//! MPICH experiments. Both arms move real bytes through the same transport
//! (`redistexec::MpiTransport`): the schedule step by step through
//! `redistexec::Runtime`, brute force as one call through
//! `redistexec::brute_force`.
//!
//! ```sh
//! cargo run --release --example mpi_like_transfer
//! ```

use redistribute::kpbs::{Topology, TrafficMatrix};
use redistribute::mpilite::FabricConfig;
use redistribute::redistexec::{brute_force, MpiTransport, Transport};
use redistribute::{Algo, Planner};

fn main() {
    // 4x4 nodes; volumes kept small because these bytes really move between
    // threads. The fabric runs the paper's testbed shape (k = 2 here) sped
    // up 20x so the demo finishes in a moment.
    let k = 2;
    let topo = Topology::two_cluster(4, 4, 100.0 / k as f64, 100.0 / k as f64, 100.0);
    assert_eq!(topo.link_k(0), k);

    let mut traffic = TrafficMatrix::zeros(4, 4);
    for i in 0..4 {
        for j in 0..4 {
            traffic.set(i, j, 200_000 + (i * 4 + j) as u64 * 50_000);
        }
    }
    println!(
        "moving {:.2} MB through a shaped in-process fabric (k = {k})",
        traffic.total_bytes() as f64 / 1e6
    );

    let speedup = 20.0;
    let nic = 100.0 / k as f64 * 1e6 / 8.0 * speedup;
    let fabric = FabricConfig {
        out_bytes_per_s: nic,
        in_bytes_per_s: nic,
        backbone_bytes_per_s: 100.0 * 1e6 / 8.0 * speedup,
        chunk_bytes: 16 * 1024,
    };

    let plan = Planner::new(Algo::Oggp)
        .with_beta(0.0)
        .plan(&traffic, &topo)
        .expect("every pair of the two clusters is routable");
    let scheduled = plan.execute_threaded(fabric);
    println!(
        "scheduled (OGGP): {:>6.3} s wall clock, {} steps, {} bytes verified",
        scheduled.total_seconds,
        scheduled.steps.len(),
        scheduled.delivered.total_bytes()
    );

    let mut transport = MpiTransport::new(4, 4, fabric);
    let brute = brute_force(&mut transport, &traffic);
    println!(
        "brute force     : {:>6.3} s wall clock, {} bytes verified",
        brute,
        transport.delivered().total_bytes()
    );
    println!(
        "scheduled is {:+.1}% vs brute force",
        (scheduled.total_seconds / brute - 1.0) * 100.0
    );
    // Both arms move every byte through the same lossless token-bucket
    // fabric, and both ledgers are verified. What this example shows is the
    // *mechanics*: per-step synchronous sends, barriers, shaping and
    // byte-exact delivery. Its wall-clock times come from threads sharing
    // the host's cores, so the percentage above is no measurement of
    // scheduling; the TCP loss effect behind the paper's 5-20% win is
    // modelled in the `flowsim` crate (see the code_coupling example and
    // Figures 10-11). A threaded arm faithful to the testbed is ROADMAP
    // item 25.
}
