//! `cenju4-serve`: the simulator as a long-running capacity-planning
//! service.
//!
//! Every what-if question about a Cenju-4 configuration used to cost a
//! full process launch. This crate serves the simulator instead: a
//! hermetic request loop (a thread per session plus an in-repo pool for
//! batch fan-out — the workspace has no crates.io dependencies)
//! accepting concurrent queries over a line-delimited JSON protocol on stdin/stdout or a TCP
//! listener. A query is a [`SystemConfig`](cenju4_sim::SystemConfig)
//! plus a workload spec; the response is the predicted performance —
//! total time, speedup over the sequential baseline, per-class latency
//! quantiles in the `crates/obs` summary shape.
//!
//! Three properties make the service fast and testable:
//!
//! * **Dedup + caching** ([`cache`]): queries are keyed by the canonical
//!   [`SystemConfig::fingerprint`](cenju4_sim::SystemConfig::fingerprint)
//!   plus workload knobs. Identical in-flight queries coalesce onto one
//!   simulation; completed results are cached within a constant byte
//!   budget. Exactly one simulation runs per resident key at any
//!   concurrency, and a cached response is byte-identical to a fresh one
//!   (responses carry no cache metadata); an evicted key re-simulates to
//!   the same bytes.
//! * **Steerable runs** ([`server`]): `run_start`/`run_step` advance a
//!   live simulation event by event, each run behind its own lock, so
//!   one client's long step never holds up another run.
//!   `run_checkpoint` stores the run's
//!   query and dispatch-step count; `run_resume` rebuilds the run by
//!   replaying a fresh driver to that count
//!   ([`Driver::resume`](cenju4_sim::Driver::resume)), so a client can
//!   checkpoint, ask a side question, and continue — resumed runs are
//!   bit-identical to uninterrupted ones.
//! * **Determinism end to end**: every response is a pure function of
//!   the request stream, which is what lets the declarative scenario
//!   harness (`tests/serve_scenarios.rs`) pin whole response lines.

pub mod cache;
pub mod pool;
pub mod proto;
pub mod server;

pub use cache::{Claim, Counters, ResultCache};
pub use pool::ThreadPool;
pub use proto::{Cmd, Query, Request, SimKey, WorkloadSpec};
pub use server::{Reply, Server};
