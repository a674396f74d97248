//! The one choice of planner.
//!
//! GGP and OGGP are one peeling pipeline that differ only in how each
//! step's matching is picked (§4.2–4.3); [`mod@crate::hier`] splits an
//! instance into blocks and plans each with OGGP; the [`baselines`]
//! bracket the design space. [`Algo`] names them all once. Every front end
//! plans through [`Algo::plan`] — the root crate's `Planner`,
//! [`plan_topology`](crate::topo::plan_topology) per backbone, the
//! executor's replans and the server's worker — and every `--algo` flag
//! parses through its [`FromStr`].

use crate::baselines;
use crate::hier::{hier, HierConfig};
use crate::problem::Instance;
use crate::schedule::Schedule;
use std::fmt;
use std::str::FromStr;

/// A planner: which algorithm turns an [`Instance`] into a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Optimised Generic Graph Peeling (§4.3) — the default planner.
    Oggp,
    /// Generic Graph Peeling (§4.2).
    Ggp,
    /// Hierarchical block-decomposed planning for large sparse instances.
    /// `HierConfig::new(0)`, what the name `hier` parses to, sizes the
    /// blocks per instance ([`crate::hier::default_blocks`]); `1`
    /// reproduces flat OGGP.
    Hier(HierConfig),
    /// One message per step (the strawman).
    Sequential,
    /// Non-preemptive heaviest-first list scheduling.
    List,
    /// Preemptive greedy peeling without regularisation (an ablation).
    Greedy,
}

impl Algo {
    /// The names [`FromStr`] accepts and [`Display`](fmt::Display) prints,
    /// in variant order.
    pub const NAMES: [&'static str; 6] = ["oggp", "ggp", "hier", "sequential", "list", "greedy"];

    /// Schedules `inst` with this planner.
    pub fn plan(&self, inst: &Instance) -> Schedule {
        match self {
            Algo::Oggp => crate::oggp::oggp(inst),
            Algo::Ggp => crate::ggp::ggp(inst),
            Algo::Hier(cfg) => hier(inst, cfg),
            Algo::Sequential => baselines::sequential(inst),
            Algo::List => baselines::nonpreemptive_list(inst),
            Algo::Greedy => baselines::preemptive_greedy(inst),
        }
    }
}

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let i = match self {
            Algo::Oggp => 0,
            Algo::Ggp => 1,
            Algo::Hier(_) => 2,
            Algo::Sequential => 3,
            Algo::List => 4,
            Algo::Greedy => 5,
        };
        f.write_str(Algo::NAMES[i])
    }
}

/// Parses one of [`Algo::NAMES`]; the error for any other name lists them.
impl FromStr for Algo {
    type Err = String;

    fn from_str(name: &str) -> Result<Algo, String> {
        match name {
            "oggp" => Ok(Algo::Oggp),
            "ggp" => Ok(Algo::Ggp),
            "hier" => Ok(Algo::Hier(HierConfig::new(0))),
            "sequential" => Ok(Algo::Sequential),
            "list" => Ok(Algo::List),
            "greedy" => Ok(Algo::Greedy),
            other => Err(format!(
                "unknown planner {other:?} (valid: {})",
                Algo::NAMES.join("|")
            )),
        }
    }
}
