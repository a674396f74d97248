//! `redistd` — a long-lived K-PBS scheduling service.
//!
//! The rest of the workspace plans one redistribution per process:
//! `redistplan` parses a matrix, schedules it, prints, exits. A backbone
//! operator's control plane doesn't work like that — it streams traffic
//! matrices at a scheduler and needs answers in bounded time, with
//! backpressure instead of collapse when overloaded, and without paying
//! the full planning cost for the (very common) repeated matrix. This
//! crate is that serving layer:
//!
//! * [`wire`] — a length-prefixed binary protocol (magic + version +
//!   request id + platform + CSR traffic matrix in, schedule + per-request
//!   work-counter deltas out) plus the plaintext `METRICS` and `FLIGHT`
//!   admin commands, with the resumable [`wire::FrameDecoder`] the server
//!   reads non-blocking sockets through and a blocking
//!   [`wire::read_frame`] for clients;
//! * [`queue`] — the bounded MPMC queue that *is* the admission-control
//!   policy: `try_push` or reject, never buffer unboundedly — plus the
//!   unbounded [`queue::Inbox`] mailboxes of the I/O threads;
//! * [`cache`] — a sharded plan cache keyed by
//!   [`wire::PlanRequest::cache_key`]: one mutex-guarded `HashMap` and
//!   clock ring per shard, second-chance-clock eviction; the server keys
//!   it in its one walk of a plan frame's bytes and stores plans already
//!   encoded, so a hit is answered at admission — byte-identical to a cold
//!   run — without a worker hop or a copy of the matrix;
//! * [`session`] — live delta-planning sessions: each wire-v3 `OPEN`
//!   pins a [`kpbs::DeltaPlanner`] that repairs its committed schedule
//!   in place under `DELTA` batches (repair → re-peel → cold-fallback
//!   ladder), with a bounded [`session::SessionTable`] as the admission
//!   boundary and `COMMIT` acknowledging the current plan;
//! * [`server`] — the serving core: `epoll` I/O threads, a fixed worker
//!   pool, graceful drain-based shutdown;
//! * [`client`] — a small blocking client.
//!
//! Three binaries ship with the crate: `redistd` (the daemon; `--trace`,
//! SIGTERM/ctrl-c drain), `redistctl` (fetches the `METRICS` and `FLIGHT`
//! reports) and `redistload` (a multi-connection load generator,
//! closed-loop or open-loop `--rate`, that byte-compares every response to
//! a cold plan). The end-to-end benchmark (`benchmark/`)
//! times the serving path.
//!
//! Like `telemetry`, this crate is std-only: no async runtime, no socket
//! or serialization dependency — threads, `TcpListener`, hand-rolled
//! frames and a ~200-line raw `epoll` shim are entirely
//! sufficient for a planner whose unit of work is milliseconds of
//! matching, and the absence of a dependency tree keeps the serving
//! layer as auditable as the scheduler it wraps. The library denies
//! `unsafe` everywhere except that shim (`sys`) and the unit tests'
//! counting allocator; the binaries' only `unsafe` is the `redistd`
//! daemon's `signal(2)` hookup.
//!
//! The server is built on `epoll` and `eventfd`, so the crate builds only
//! on Linux; any other target fails to compile with one message.
//!
//! # Quickstart
//!
//! ```
//! use redistd::{client, server::{self, ServerConfig}, wire::Algo};
//! use kpbs::{Platform, TrafficMatrix};
//!
//! let handle = server::start(ServerConfig::default()).unwrap();
//! let platform = Platform::new(3, 3, 100.0, 100.0, 200.0);
//! let mut traffic = TrafficMatrix::zeros(3, 3);
//! traffic.set(0, 0, 10_000_000);
//! traffic.set(1, 2, 4_000_000);
//!
//! let mut c = client::Client::connect(handle.addr()).unwrap();
//! let req = client::request(1, Algo::Oggp, &traffic, &platform, 0.05);
//! match c.plan(&req).unwrap() {
//!     redistd::wire::PlanResponse::Ok { schedule, cached, .. } => {
//!         assert!(!cached);
//!         assert!(schedule.num_steps() > 0);
//!     }
//!     other => panic!("unexpected response: {other:?}"),
//! }
//! let stats = handle.shutdown();
//! assert_eq!(stats.served, 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("redistd serves over epoll(7) and eventfd(2): it builds only on Linux");

#[cfg(test)]
#[allow(unsafe_code)]
mod alloc_count;
pub mod cache;
pub mod client;
pub(crate) mod event;
pub mod queue;
pub mod server;
pub mod session;
#[allow(unsafe_code)]
pub(crate) mod sys;
pub mod wire;

pub use server::{start, ServerConfig, ServerHandle, ServerStats, ServingCore};
pub use wire::{Algo, PlanRequest, PlanResponse, RejectReason};
