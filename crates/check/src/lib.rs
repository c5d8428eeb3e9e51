//! Schedule-exploring checker for the Cenju-4 coherence protocol.
//!
//! The paper's two correctness claims — the queuing protocol is
//! starvation-free (Section 3.3) and the spill-to-memory queues make one
//! physical network deadlock-free (Section 3.4) — hold or fall on
//! *message interleavings*, not timings. The production simulator runs
//! one deterministic schedule; this crate runs the others:
//!
//! * [`scenario`] — tiny closed workloads (2–4 nodes hammering 1–2
//!   blocks) where the controlled scheduler decides every race;
//! * [`oracles`] — invariants evaluated after every step: single-writer/
//!   multiple-reader, directory-vs-cache agreement, data-value coherence,
//!   Figure-9 queue bounds, and global quiescence (no lost or starved
//!   transaction);
//! * [`explore`] — the step loop every explorer drives, seeded random
//!   walks, counterexample shrinking, and deterministic replay from a
//!   printed choice prefix;
//! * [`reduce`] — the bounded-exhaustive search: a DFS that forks
//!   engines to backtrack, with dynamic partial-order reduction (sleep
//!   sets over event footprints) and state-fingerprint deduplication with
//!   livelock detection where they are sound, and a deterministic
//!   parallel frontier where they are not — bounded-exhaustive at 4–5
//!   nodes, with reduction proven to preserve every falsifiable oracle
//!   (`tests/dpor_soundness.rs`); plus parallel random-walk campaigns.
//!
//! The engine hook is `Engine::enable_controlled_schedule`: events park
//! in a held set instead of firing in time order, and the checker picks
//! any *ready* event — one whose per-channel in-order guarantees (network
//! (src, dst) FIFOs, per-processor program order) permit firing — so
//! every explored interleaving is one the real machine could produce.
//!
//! The oracles must also *reject* broken protocols: `FaultInjection`
//! mutants that disable the reservation bit or drop spilled requests each
//! yield a shrunk, replayable counterexample (see `tests/checker.rs` and
//! the `cenju4-check mutants` subcommand).
//!
//! # Examples
//!
//! ```
//! use cenju4_check::{explore_reduced, CheckConfig, ExploreLimits, Exploration};
//!
//! let cfg = CheckConfig {
//!     ops_per_node: 1,
//!     ..CheckConfig::default()
//! };
//! let out = explore_reduced(&cfg, &ExploreLimits::default(), 1);
//! assert!(matches!(out.exploration, Exploration::AllGreen { .. }));
//! ```

pub mod explore;
pub mod oracles;
pub mod reduce;
pub mod scenario;

pub use explore::{
    random_walks, replay, run_one, shrink, Choice, Counterexample, Exploration, ExploreLimits,
    RunOutcome,
};
pub use oracles::{OracleState, Violation};
pub use reduce::{
    default_check_threads, dpor_eligible, explore_reduced, explore_reduced_with,
    random_walks_parallel, violation_profile, ReducedOutcome,
};
pub use scenario::CheckConfig;
