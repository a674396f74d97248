//! Worst-case and structured families: evaluation ratios of every scheduler
//! on the named instance corpus (`kpbs::instances`) at growing sizes. The
//! paper's tech report exhibits families approaching the approximation
//! ratio of 2; this harness tracks how close the implementation gets.
//!
//! ```sh
//! cargo run --release -p bench --bin worst_case
//! ```

use bench::{f4, row};
use kpbs::ggp::ggp_seeded;
use kpbs::{baselines, ggp, instances, lower_bound, oggp, Instance};
use telemetry::cli::Args;

fn ratios(name: &str, inst: &Instance) {
    let lb = lower_bound(inst) as f64;
    let r = |s: kpbs::Schedule| {
        debug_assert!(s.validate(inst).is_ok());
        s.cost() as f64 / lb
    };
    row(&[
        name.into(),
        f4(r(ggp(inst))),
        f4(r(ggp_seeded(inst))),
        f4(r(oggp(inst))),
        f4(r(baselines::nonpreemptive_list(inst))),
        format!("{}", lb as u64),
    ]);
}

fn main() {
    Args::from_env("worst_case").finish();
    row(&[
        "family".into(),
        "GGP".into(),
        "GGP*".into(),
        "OGGP".into(),
        "list".into(),
        "bound".into(),
    ]);
    for n in [4usize, 8, 16] {
        ratios(&format!("trap{n}"), &instances::beta_trap(n, 2 * n as u64));
        ratios(&format!("hoard{n}"), &instances::hoarding_sender(n, 5));
        ratios(
            &format!("unif{n}"),
            &instances::uniform_all_to_all(n, 7, n / 2 + 1, 1),
        );
        ratios(&format!("stair{n}"), &instances::staircase(n, 3));
    }
    use rand::{rngs::SmallRng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(1);
    for n in [8usize, 16] {
        ratios(
            &format!("plaw{n}"),
            &instances::power_law(&mut rng, n, 4 * n, 512, n / 2, 2),
        );
    }
}
