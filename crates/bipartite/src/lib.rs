//! Weighted bipartite graphs and matchings for redistribution scheduling.
//!
//! This crate is the graph substrate of the K-PBS suite (the paper's
//! "bipartite graphs library we developed"). It provides:
//!
//! * [`Graph`] — a mutable weighted bipartite multigraph with integer edge
//!   weights ("ticks"), tuned for the peeling loops of the GGP/OGGP
//!   schedulers (edges are removed as their weight reaches zero),
//! * [`matching`] — matching representation and validation,
//! * [`hopcroft_karp`] — `O(m·sqrt(n))` maximum-cardinality matching,
//! * [`bottleneck`] — maximal matchings that maximise their minimum edge
//!   weight (Figure 6 of the paper), both the paper's incremental algorithm
//!   and a faster threshold binary search,
//! * [`greedy`] — greedy maximal matching used by baseline schedulers,
//! * [`engine`] — the incremental peeling engine: matching state and
//!   scratch buffers reused across the peels of one WRGP run,
//! * [`generate`] — seeded random graph generators used by the simulation
//!   campaigns (Figures 7–9),
//! * [`partition`] — cheap affinity-based block partitioning, the
//!   relabeling pre-pass of the hierarchical planner,
//! * [`properties`] — `P(G)`, `W(G)`, `Δ(G)` and weight-regularity checks,
//! * [`dot`] — Graphviz export for debugging and examples.
//!
//! # Example
//!
//! ```
//! use bipartite::{Graph, hopcroft_karp};
//!
//! let mut g = Graph::new(2, 2);
//! g.add_edge(0, 0, 5);
//! g.add_edge(0, 1, 3);
//! g.add_edge(1, 1, 4);
//! let m = hopcroft_karp::maximum_matching(&g);
//! assert_eq!(m.len(), 2); // perfect
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bottleneck;
pub mod coloring;
pub mod csr;
pub mod dot;
pub mod engine;
pub mod generate;
pub mod graph;
pub mod greedy;
pub mod hopcroft_karp;
pub mod matching;
pub mod partition;
pub mod properties;

pub use csr::{CsrAdj, SearchState};
pub use engine::MatchingEngine;
pub use graph::{EdgeId, Graph, Side, Weight};
pub use matching::Matching;
pub use partition::{partition_affinity, Bipartition};

#[cfg(test)]
pub(crate) mod testutil {
    /// Work counters are process-global; tests that toggle or diff them
    /// must not overlap (mirrors the lock in the telemetry crate's tests).
    pub static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
}
