//! Online localization service for the VITAL workspace.
//!
//! This crate turns the offline reproduction into a serving system: a
//! dependency-free HTTP/1.1 server on [`std::net::TcpListener`] whose hot
//! path is the **micro-batching scheduler** — concurrent requests are
//! coalesced into `Localizer::localize_batch` calls over the packed GEMM,
//! executed by **N dispatch workers** (`--workers`), each on its own
//! thread, that share one set of model weights, then fanned back out, with
//! bounded-queue backpressure shedding load. Batching and replication are
//! both *transparent*: responses are bit-identical whether a request was
//! served alone or coalesced with strangers, and whichever worker ran it
//! (the batched-inference stack guarantees batch-size invariance; weights
//! are immutable `Arc`-shared tensors).
//!
//! Layers, bottom to top:
//!
//! * [`http`] — hand-rolled, EOF-guarded HTTP/1.1 request/response parsing
//!   and writing; typed errors, never panics on untrusted bytes.
//! * [`codec`] — JSON bodies ⇄ [`fingerprint::FingerprintObservation`]s,
//!   on the shared `jsonio` crate.
//! * [`batcher`] — the bounded queue + N dispatch workers that form
//!   micro-batches (`max_batch` / `max_wait` / `workers` knobs) and
//!   execute them on the shared registry.
//! * [`registry`] — checkpoint discovery and model loading (any of the six
//!   localizer kinds); `Send + Sync`, built once on the main thread and
//!   shared by every worker behind an `Arc`.
//! * `session` — one connection's exchange as a pure state machine: the
//!   parse buffer, routing (`POST /v1/localize`, `GET /v1/models`,
//!   `GET /healthz`, `GET /metrics`, `POST /admin/drain`), validation and
//!   encoding. It holds no socket, clock or thread; it is fed bytes, job
//!   outcomes and the current instant and says what to do next.
//! * [`server`] — the blocking shell: the accept loop, one handler thread
//!   per connection, capped by a permit count taken from the batcher's
//!   knobs (`503` + `Retry-After` past it), that reads, submits, waits and
//!   writes as its session asks; and the lifecycle. The session ends where
//!   a socket, a clock or a wait begins.
//! * [`metrics`] — counters, batch-size histogram, per-worker dispatch
//!   counters and latency percentiles behind `GET /metrics`.
//! * [`faultinject`] — the one fault no test can cause from outside, a
//!   worker panic on the Nth collected batch, for the simulator; one
//!   `Option` check per batch when no plan is configured.
//!
//! The stack is **fault tolerant by construction**: each collected batch
//! executes under one `catch_unwind`, so any panic in it — a model's, or
//! one a [`FaultPlan`] injects — fails only that batch's jobs (typed
//! 500s) and the same dispatch worker collects the next batch: a worker
//! cannot die, so nothing restarts one. A request whose observations break
//! its model's input contract (another access-point count) is a `400`
//! before it is queued, so it never shares a batch; jobs carry deadlines
//! and are shed (`504`) at dispatch once stale; and a graceful drain
//! (`POST /admin/drain`, SIGINT/SIGTERM, or [`Server::drain`]) completes
//! queued work before the server exits.
//!
//! The `vital-serve` binary wires these together from the command line
//! (`tests/binary.rs` boots it, checks it against offline and drains it
//! with SIGTERM); the repository's `benchmark/` package times an in-process
//! [`Server`] under open- and closed-loop load.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]
#![warn(rust_2018_idioms)]

pub mod batcher;
pub mod cli;
pub mod codec;
pub mod faultinject;
pub mod http;
pub mod metrics;
pub mod registry;
mod schedule;
pub mod server;
mod session;

pub use batcher::{BatcherConfig, JobFailure, SubmitError};
pub use faultinject::FaultPlan;
pub use metrics::Metrics;
pub use registry::Registry;
pub use server::{DrainTrigger, Server, ServerConfig, DRAIN_GRACE};

#[cfg(test)]
mod sim;
