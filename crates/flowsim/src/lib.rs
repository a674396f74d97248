//! Discrete-event fluid-flow network simulator.
//!
//! This crate is the stand-in for the paper's physical testbed (two 10-node
//! clusters with `rshaper`-limited 100 Mbit/s NICs behind a shared
//! 100 Mbit/s interconnect, Section 5.2). It simulates bulk transfers as
//! fluid flows whose instantaneous rates are the **max–min fair** allocation
//! under three families of capacity constraints: each sender NIC, each
//! receiver NIC, and the backbone. Max–min fairness is the steady-state
//! allocation of long-lived TCP flows sharing a bottleneck, which is exactly
//! the regime of the paper's measurements.
//!
//! Modules:
//!
//! * [`network`] — capacity specification, including time-varying backbones,
//! * [`fairshare`] — the progressive-filling max–min allocator,
//! * [`flow`] — flows and per-flow results,
//! * [`tcp`] — the TCP behaviour model (per-flow overhead + seeded jitter)
//!   that makes the brute-force baseline lossy and non-deterministic,
//! * [`engine`] — the event loop.
//!
//! The crate runs flows, not redistributions. Both of the paper's arms
//! execute through `redistexec`'s `SimTransport`, which hands each batch of
//! transfers to the [`Engine`]: a schedule's synchronous steps one at a
//! time through `redistexec::Runtime`, and the brute-force baseline (every
//! message at once) as one batch through `redistexec::brute_force`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod fairshare;
pub mod flow;
pub mod network;
pub mod tcp;

pub use engine::{Engine, RunResult, SimConfig};
pub use fairshare::{max_min_rates, max_min_rates_routed};
pub use flow::Flow;
pub use network::{CapacityProfile, NetworkSpec};
pub use tcp::TcpModel;
