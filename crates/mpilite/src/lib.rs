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
//! * every received buffer is checked byte for byte against the sender's
//!   [`payload()`] ([`verify`]).
//!
//! The crate moves bytes, it does not plan them. Both of the paper's arms
//! execute through `redistexec`'s `MpiTransport`, one [`World::run`] per
//! call, timed by wall clock (the in-process analogue of the paper's
//! `ntp_gettime` measurements): a `kpbs` schedule one step at a time through
//! `redistexec::Runtime`, and the brute-force baseline (every message at
//! once, one thread per connection) through `redistexec::brute_force`.
//!
//! Bandwidths are configurable so tests run in milliseconds; the *structure*
//! (who waits on whom, what is shaped where) matches the paper's setup.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod barrier;
pub mod comm;
pub mod fabric;
pub mod payload;
pub mod shaper;

pub use comm::{Comm, Rank, World, WorldConfig};
pub use fabric::FabricConfig;
pub use payload::{payload, verify};
