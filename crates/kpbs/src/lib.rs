//! K-Preemptive Bipartite Scheduling (K-PBS).
//!
//! This crate implements the contribution of Jeannot & Wagner, *Two Fast and
//! Efficient Message Scheduling Algorithms for Data Redistribution through a
//! Backbone* (IPDPS 2004): scheduling an arbitrary redistribution pattern
//! between two clusters interconnected by a backbone that admits at most `k`
//! simultaneous transfers, under the 1-port model, with a per-step setup
//! delay `β`, minimising `Σ_i (β + W(M_i))`.
//!
//! The two headline algorithms are:
//!
//! * [`mod@ggp`] — the Generic Graph Peeling 2-approximation (Section 4.2),
//! * [`mod@oggp`] — the Optimised GGP (Section 4.3), identical peeling but each
//!   step's matching maximises its minimum edge weight.
//!
//! Supporting pieces: [`wrgp`] (the weight-regular peeling kernel, Fig. 3),
//! [`regularize`] (Section 4.2.2 graph augmentation), [`normalize`]
//! (β-normalisation), [`mod@lower_bound`] (the Cohen–Jeannot–Padoy bound used as
//! the denominator of the paper's *evaluation ratio*), [`exact`] (an optimal
//! branch-and-bound solver for tiny instances), [`baselines`], [`mod@hier`] (the
//! hierarchical block-decomposed planner for large sparse instances),
//! [`Algo`] (the one choice among the planners), and the future-work
//! extension [`relax`] (barrier weakening). [`mod@topo`] generalises the
//! platform model to heterogeneous multi-backbone topologies with a
//! per-bottleneck `k_b`.
//!
//! # Quickstart
//!
//! ```
//! use bipartite::Graph;
//! use kpbs::{Instance, ggp, oggp, lower_bound};
//!
//! // 2 senders, 2 receivers, 3 messages; at most k = 1 transfer at a time,
//! // setup delay β = 1 tick.
//! let mut g = Graph::new(2, 2);
//! g.add_edge(0, 0, 4);
//! g.add_edge(0, 1, 2);
//! g.add_edge(1, 1, 3);
//! let inst = Instance::new(g, 1, 1);
//!
//! let s = oggp::oggp(&inst);
//! s.validate(&inst).unwrap();
//! assert!(s.cost() >= lower_bound::lower_bound(&inst));
//! assert!(ggp::ggp(&inst).validate(&inst).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algo;
pub mod baselines;
pub mod batch;
pub mod delta;
pub mod exact;
pub mod fingerprint;
pub mod ggp;
pub mod hier;
pub mod instances;
pub mod lower_bound;
pub mod normalize;
pub mod oggp;
pub mod platform;
pub mod problem;
pub mod regularize;
pub mod relax;
pub mod residual;
pub mod schedule;
pub mod stats;
pub mod topo;
pub mod traffic;
pub mod validate;
pub mod wrgp;

/// Alias of [`Algo`] for callers that name it `TopoAlgo`.
pub use algo::Algo as TopoAlgo;
pub use algo::Algo;
pub use delta::{DeltaPlanner, MatrixDelta, RepairLevel, ReplanOutcome};
pub use fingerprint::{cache_key, cache_key_from_edges, fingerprint, session_cache_key};
pub use ggp::ggp;
pub use hier::{hier, hier_report, HierConfig, HierReport};
pub use lower_bound::lower_bound;
pub use oggp::oggp;
pub use platform::Platform;
pub use problem::Instance;
pub use residual::{residual_matrix, restrict_matrix, surviving_residual};
pub use schedule::{Schedule, Step, Transfer};
pub use topo::{
    plan_topology, topo_lower_bound, BackboneSpec, NodeSpec, TopoError, TopoPlan, Topology,
};
pub use traffic::TrafficMatrix;

#[cfg(test)]
pub(crate) mod testutil {
    /// Work counters are process-global; tests that toggle or diff them
    /// must not overlap (mirrors the lock in the telemetry crate's tests).
    pub static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
}
