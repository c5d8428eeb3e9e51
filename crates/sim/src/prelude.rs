//! One-stop imports for drivers, examples, benches, and the protocol
//! checker.
//!
//! The simulation stack spans five crates (`des`, `directory`, `network`,
//! `protocol`, `sim`); before this module every binary imported from four
//! of them. `use cenju4_sim::prelude::*` brings in everything a driver
//! program needs.
//!
//! # Examples
//!
//! ```
//! use cenju4_sim::prelude::*;
//!
//! let cfg = SystemConfig::builder(16).build()?;
//! let mut eng = Engine::new(&cfg);
//! let addr = Addr::new(NodeId::new(1), 0);
//! eng.issue(SimTime::ZERO, NodeId::new(0), MemOp::Load, addr);
//! assert_eq!(eng.run().len(), 1);
//! # Ok::<(), ConfigError>(())
//! ```

pub use cenju4_des::{Duration, SimTime, SplitMix64};
pub use cenju4_directory::{DirectoryId, MemState, NodeId, SharerSet, SystemSize, SystemSizeError};
pub use cenju4_network::{
    FaultEvent, FaultKind, FaultPlan, LinkDown, MulticastMode, NetParams, NetStats, OneShotFault,
    WireClass,
};
pub use cenju4_obs::{chrome_trace_json, MetricsRegistry, SpanClass, SpanCollector};
pub use cenju4_protocol::observer::{Observer, StarvationProbe};
pub use cenju4_protocol::{
    AccessDecision, Addr, CacheState, ConfigError, Engine, EngineStats, FaultInjection, IssueError,
    MemOp, Notification, PendingEvent, ProtoMsg, ProtoParams, ProtocolId, ProtocolKind,
    RecoveryError, RecoveryParams, ReqKind, Rules, SystemConfig, SystemConfigBuilder, TxnId,
};

pub use crate::driver::{Driver, Program, Step, Target};
pub use crate::probes;
pub use crate::report::{AccessClass, NodeReport, RunReport};
pub use crate::sweep::{sweep, sweep_on};
