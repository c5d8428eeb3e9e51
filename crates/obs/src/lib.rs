//! Transaction-span observability for the Cenju-4 reproduction.
//!
//! The simulator's aggregate counters answer "how many invalidations
//! happened?"; this crate answers "what did transaction #4711 actually
//! do, hop by hop, and what is the p99 upgrade latency?". It attaches
//! through the `protocol` crate's [`Observer`] seam — pure
//! instrumentation, never influencing protocol behaviour — and is
//! therefore zero-cost when no collector is registered: a no-observer
//! run stays bit-identical to the blessed golden traces.
//!
//! * [`SpanCollector`] opens a **span** per coherence transaction (keyed
//!   by its stable [`TxnId`]), accumulates typed phase events
//!   (queued-at-home, reservation-wait, multicast-fanout,
//!   gather-combine, reply, …) with simulated timestamps, and closes it
//!   on completion into per-class latency histograms. Writebacks, which
//!   carry no transaction id, get pseudo-spans keyed by (evictor,
//!   block).
//! * [`MetricsRegistry`] holds the per-class [`Histogram`]s
//!   (p50/p90/p99/max) and per-module/per-phase counters, dumped as
//!   flat text or JSON.
//! * [`export::chrome_trace_json`] renders the spans as Chrome
//!   `trace_event` JSON — one lane per node/module — openable in
//!   `chrome://tracing` or Perfetto.
//! * [`json`] is a minimal hand-rolled JSON parser (the workspace is
//!   hermetic — no serde) used to validate exported traces in tests and
//!   the `obs-smoke` CI tier.
//!
//! # Examples
//!
//! ```
//! use cenju4_des::SimTime;
//! use cenju4_directory::NodeId;
//! use cenju4_obs::SpanCollector;
//! use cenju4_protocol::{Addr, Engine, MemOp, SystemConfig};
//!
//! let cfg = SystemConfig::builder(16).build()?;
//! let mut eng = Engine::new(&cfg);
//! eng.add_observer(Box::new(SpanCollector::new(cfg.sys)));
//! eng.issue(SimTime::ZERO, NodeId::new(0), MemOp::Load, Addr::new(NodeId::new(1), 0));
//! eng.run();
//! let col: &SpanCollector = eng.observer().unwrap();
//! assert_eq!(col.completed_span_count(), 1);
//! assert_eq!(col.open_span_count(), 0); // every opened span closed
//! # Ok::<(), cenju4_protocol::ConfigError>(())
//! ```

pub mod export;
pub mod json;
pub mod metrics;
pub mod span;

pub use cenju4_des::{Histogram, HistogramSummary};
pub use cenju4_protocol::{Observer, PhaseKind, TxnId};
pub use export::chrome_trace_json;
pub use metrics::{summary_to_json, CounterKey, MetricsRegistry};
pub use span::{Span, SpanClass, SpanCollector, SpanEvent, SpanEvents};
