//! SS/TDMA switching — the paper's conclusion notes GGP/OGGP "can also be
//! used [...] in the context of SS/TDMA systems or WDM network".
//!
//! A satellite-switched TDMA system has ground stations uplinking to a
//! satellite with `k` transponders; a switching configuration is a matching
//! of at most `k` (uplink, downlink) beams, and reconfiguring the switch
//! costs a fixed delay — exactly K-PBS with the transponder count as `k`
//! and the switching time as β (references [4, 17, 18] of the paper).
//!
//! ```sh
//! cargo run --example sstdma
//! ```

use bipartite::Graph;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use redistribute::kpbs::{self, Instance};

fn main() {
    // 8 uplink stations, 8 downlink stations, 4 transponders; traffic in
    // time slots (one slot = time to relay one frame).
    let (uplinks, downlinks, transponders) = (8, 8, 4);
    let switching_delay = 2; // slots lost per switch reconfiguration

    let mut rng = SmallRng::seed_from_u64(1981); // Bongiovanni et al., 1981
    let mut g = Graph::new(uplinks, downlinks);
    for u in 0..uplinks {
        for d in 0..downlinks {
            if rng.gen_bool(0.45) {
                g.add_edge(u, d, rng.gen_range(1..=30));
            }
        }
    }
    println!(
        "SS/TDMA: {} uplinks, {} downlinks, {} transponders, switching delay {} slots",
        uplinks, downlinks, transponders, switching_delay
    );
    println!("traffic: {} beams, {} slots total\n", g.edge_count(), {
        let inst = Instance::new(g.clone(), transponders, switching_delay);
        inst.total_weight()
    });

    let inst = Instance::new(g, transponders, switching_delay);
    let lb = kpbs::lower_bound(&inst);

    for (name, s) in [
        ("GGP", kpbs::ggp(&inst)),
        ("OGGP", kpbs::oggp(&inst)),
        ("list", kpbs::baselines::nonpreemptive_list(&inst)),
    ] {
        s.validate(&inst).expect("feasible switch program");
        println!(
            "{:>9}: {:>3} switch configurations, frame length {:>4} slots (ratio {:.3})",
            name,
            s.num_steps(),
            s.cost(),
            s.cost() as f64 / lb as f64
        );
    }
    println!("{:>9}: {:>22} {:>4} slots", "bound", "", lb);

    // The zero-switching-delay case is solvable exactly (Bongiovanni et
    // al.); our peeling attains the bound there.
    let free_switch = Instance::new(inst.graph.clone(), transponders, 0);
    let s = kpbs::oggp(&free_switch);
    assert_eq!(s.cost(), kpbs::lower_bound(&free_switch));
    println!(
        "\nwith free switching (beta = 0) the schedule is provably optimal: {} slots",
        s.cost()
    );
}
