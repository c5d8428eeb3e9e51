//! The Cenju-4 cache-coherence protocol.
//!
//! This crate implements the DSM protocol of Section 3.3/3.4 and the
//! appendix of the paper:
//!
//! * a **MESI** processor-side cache (1 MB, 128-byte lines) with an
//!   exclusive state and silent clean evictions ([`Cache`]);
//! * the four master requests — read-shared, read-exclusive, **ownership**
//!   (a data-less upgrade of a Shared copy) and the reply-less
//!   writeback ([`messages`]);
//! * five memory states (`C`/`D`/`Ps`/`Pe`/`Pi`) kept in the 64-bit
//!   directory entries of `cenju4-directory`;
//! * the **starvation-free queuing home**: requests that hit a pending
//!   block are parked in a per-home main-memory FIFO (4096 entries = 32 KB
//!   on 1024 nodes) guarded by the per-block *reservation bit*, and are
//!   serviced in order as replies drain — no nacks anywhere;
//! * slave replies routed **through the home** (never slave → master),
//!   removing the two DASH nack races of Figure 8;
//! * invalidations fanned out by the network's multicast and collected by
//!   its gathering function, falling back to a singlecast when only one
//!   node must be invalidated;
//! * a **nack baseline** ([`ProtocolKind::Nack`]) that reproduces the
//!   starvation behaviour of Figure 6(a) for comparison.
//!
//! A machine is described by one validated [`SystemConfig`] (size,
//! network, protocol and directory selection, fault plan, recovery),
//! built with [`SystemConfig::builder`]; [`Engine::new`] is the only way
//! to turn it into an engine.
//!
//! The engine ([`Engine`]) is a discrete-event simulator: drivers issue
//! loads and stores, pump events, and receive completion notifications
//! carrying exact latencies. Internally it is decomposed per the paper's
//! Section 3.1 hardware organisation: a [`modules::MasterModule`],
//! [`modules::HomeModule`], and [`modules::SlaveModule`] per node,
//! connected by a typed [`modules::bus::MessageBus`], with all
//! instrumentation (statistics, tracing, custom probes) attached through
//! the [`observer::Observer`] trait.
//!
//! # Examples
//!
//! A store to a block shared by several nodes triggers a gathered
//! multicast invalidation:
//!
//! ```
//! use cenju4_directory::NodeId;
//! use cenju4_des::SimTime;
//! use cenju4_protocol::{Addr, Engine, MemOp, SystemConfig};
//!
//! let mut eng = Engine::new(&SystemConfig::builder(16).build()?);
//! let addr = Addr::new(NodeId::new(0), 7);
//! // Six nodes read the block...
//! for n in 1..7u16 {
//!     eng.issue(eng.now(), NodeId::new(n), MemOp::Load, addr);
//!     eng.run();
//! }
//! // ...then node 1 stores to it: ownership + multicast invalidation.
//! eng.issue(eng.now(), NodeId::new(1), MemOp::Store, addr);
//! eng.run();
//! assert_eq!(eng.stats().invalidations.get(), 1);
//! # Ok::<(), cenju4_protocol::ConfigError>(())
//! ```

pub mod addr;
pub mod cache;
pub mod coherence;
pub mod config;
pub mod deadlock;
pub mod engine;
pub mod messages;
pub mod modules;
pub mod observer;
pub mod params;
pub mod service;
pub mod stats;
pub mod trace;

pub use addr::{Addr, BLOCK_BYTES};
pub use cache::{Cache, CacheState, Victim};
pub use coherence::{AccessDecision, ProtocolId, Rules};
pub use config::{ConfigError, SystemConfig, SystemConfigBuilder};
pub use engine::{Engine, IssueError, MemOp, Notification};
pub use messages::{ProtoMsg, ReqKind, TxnId};
pub use modules::bus::{Channel, Footprint, NodeHealth, PendingEvent};
pub use observer::{ModuleKind, Observer, PhaseKind};
pub use params::{FaultInjection, ProtoParams, ProtocolKind, RecoveryError, RecoveryParams};
pub use stats::EngineStats;
