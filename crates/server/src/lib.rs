//! # smoqe-server — the SMOQE network serving layer
//!
//! Seven PRs built an engine that is `Send + Sync`, lock-free during
//! evaluation, compiled-plan-cached and jump-scan-accelerated — but only
//! reachable in-process. This crate puts it on a socket:
//!
//! * [`proto`] — a versioned, length-prefixed binary frame protocol
//!   (`Hello`, `Query`, `QueryBatch`, `Update`, `UpdateBatch`,
//!   `OpenDocument`, `Stats`, `Ping`, `Shutdown`) with a hand-rolled
//!   codec (the workspace is offline; there is no serde). Engine errors
//!   cross the wire as stable numeric codes + display text; the opaque
//!   [`UpdateDenied`](smoqe::EngineError::UpdateDenied) denial stays
//!   **byte-identical** whatever its cause.
//! * [`server`] — a `std::net` thread server multiplexing N connections
//!   onto one shared [`Engine`](smoqe::Engine): sessions bind at `Hello`,
//!   every read hits the shared plan cache and `Arc` snapshots, requests
//!   flow through a **bounded** global work queue, and shutdown drains
//!   in-flight work before closing.
//! * [`admission`] — per-tenant token buckets and max-inflight quotas;
//!   over-quota requests get a `Busy` response carrying a retry-after
//!   hint, never a disconnect and never an unbounded buffer.
//! * [`trace`] — a fixed-capacity ring buffer of per-request
//!   [`RequestContext`] outcomes, dumpable over
//!   the wire via the `Stats` op: debugging a busy server is grep, not
//!   guesswork.
//! * [`client`] — the blocking client library the CLI, tests and the
//!   traffic harness use.
//! * [`traffic`] — a traffic-simulation harness driving hundreds of
//!   concurrent mixed read/write sessions against a live server and
//!   reporting p50/p95/p99 latency and QPS.
//! * [`chaos`] — a socket-level fault-injection proxy (stalls, byte
//!   dribble, torn writes, abrupt disconnects) with seeded, reproducible
//!   schedules; `tests/chaos.rs` uses it to prove the deadline /
//!   cancellation / shedding machinery leaks no slots or queue entries
//!   under network failure.
//!
//! ## Security over the wire
//!
//! The in-process invariant — a group session learns nothing beyond its
//! view, even from errors — must survive serialization. Concretely:
//! answer XML is always the **view image** for group principals (the
//! server asks [`Session::run`](smoqe::engine::Session::run) for
//! serialized answers);
//! raw source node ids, evaluator counters that span hidden regions, the
//! execution mode, and shared-scan event counts are masked from group
//! responses (see [`proto::WireAnswer`]); and denial responses are
//! byte-identical between hidden and non-existent targets.
//!
//! Principals are *claims* until `Hello` authenticates them: admin
//! sessions need the configured admin token (loopback peers only when
//! none is set), groups may require per-group tokens, and group names
//! must be bare identifiers so no client can alias the admin tenant's
//! accounting key. All refusals share one `UNAUTHORIZED` frame — wrong
//! token and wrong peer are indistinguishable on the wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod chaos;
pub mod client;
pub mod context;
pub mod proto;
pub mod queue;
pub mod server;
pub mod trace;
pub mod traffic;

pub use admission::TenantQuota;
pub use chaos::{seeded_schedule, ChaosProxy, Fault};
pub use client::{Client, ClientError, RemoteAnswer, RetryPolicy};
pub use context::RequestContext;
pub use proto::Principal;
pub use server::{RecoveryGate, Server, ServerConfig, ServerHandle};
pub use traffic::{percentile, run_traffic, TrafficConfig, TrafficReport};
