//! System assembly for the Cenju-4 DSM reproduction.
//!
//! This crate sits on top of the coherence engine (`cenju4-protocol`) and
//! provides what the paper's evaluation needed from the machine:
//!
//! * [`SystemConfig`] — re-exported from `cenju4-protocol`: one validated
//!   value bundling machine size, network parameters, protocol parameters
//!   and protocol variant, with the ablation switches the benches sweep;
//! * [`probes`] — the microbenchmarks behind **Table 2** (load-miss
//!   latencies per sharing class) and **Figure 10** (store latency vs
//!   number of sharing nodes, with and without the multicast/gather
//!   hardware);
//! * [`driver`] — a closed-loop processor model: each node executes a
//!   [`driver::Program`] of memory accesses, think time and
//!   barrier synchronizations against the engine;
//! * [`report`] — per-node and aggregate statistics in the shape of the
//!   paper's Tables 3 and 4 (access and miss breakdowns into
//!   private / shared-local / shared-remote, sync-time fractions);
//! * [`sweep`] — fans independent parameter points out over `std::thread`
//!   workers with deterministic (point-order) results, so figure sweeps
//!   produce bit-identical output at any worker count.
//!
//! # Examples
//!
//! Reproduce one Table 2 cell:
//!
//! ```
//! use cenju4_sim::{probes, SystemConfig};
//!
//! let cfg = SystemConfig::builder(16).build()?;
//! let row = probes::load_latencies(&cfg);
//! assert_eq!(row.shared_local_clean.as_ns(), 610);
//! # Ok::<(), cenju4_sim::ConfigError>(())
//! ```

pub mod driver;
pub mod prelude;
pub mod probes;
pub mod report;
pub mod sweep;

pub use cenju4_protocol::{ConfigError, SystemConfig, SystemConfigBuilder};
pub use driver::{Driver, Program, Step, Target};
pub use report::{AccessClass, NodeReport, RunReport};
pub use sweep::{sweep, sweep_on};
