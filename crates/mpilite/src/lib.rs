//! An in-process MPI-like message-passing runtime.
//!
//! The paper's real-world experiments (Section 5.2) run MPICH programs on
//! two clusters whose NICs are shaped to `100/k` Mbit/s by the `rshaper`
//! token-bucket kernel module. This crate reproduces that software stack in
//! process:
//!
//! * ranks are OS threads ([`comm`]),
//! * point-to-point sends are synchronous rendezvous transfers of real byte
//!   buffers ([`comm::Comm::send`] blocks until the receiver accepts, like
//!   `MPI_Ssend`),
//! * a shared [`fabric`] rate-limits every transfer through three
//!   token buckets — sender NIC, receiver NIC, backbone — mirroring
//!   `rshaper` ([`shaper`]),
//! * global [`barrier`]s separate communication steps,
//! * [`runner`] runs the brute-force all-at-once pattern and holds the
//!   byte-exact payload check ([`runner::verify`]) every real-byte run
//!   shares. A `kpbs` [`Schedule`](kpbs::Schedule) executes through
//!   `redistexec::Runtime` over its `MpiTransport`: one [`World::run`] per
//!   step, timed by wall clock, the in-process analogue of the paper's
//!   `ntp_gettime` measurements.
//!
//! Bandwidths are configurable so tests run in milliseconds; the *structure*
//! (who waits on whom, what is shaped where) matches the paper's setup.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod barrier;
pub mod collective;
pub mod comm;
pub mod fabric;
pub mod runner;
pub mod shaper;

pub use collective::{alltoallv_recv, alltoallv_send};
pub use comm::{Comm, Rank, World, WorldConfig};
pub use fabric::FabricConfig;
pub use runner::{payload, run_brute_force, verify, RunnerReport};
