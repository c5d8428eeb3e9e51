//! The Cenju-4 multistage interconnection network.
//!
//! Cenju-4 connects up to 1024 nodes through a multistage network of 4×4
//! crossbar switches (2 stages up to 16 nodes, 4 up to 256, 6 up to 1024).
//! The network guarantees:
//!
//! * **in-order delivery** between any two nodes (the path between two
//!   nodes is unique and links are FIFO),
//! * **hardware multicast**: a message carrying a pointer-structure or
//!   bit-pattern destination specification is replicated *inside* the
//!   switches, each switch computing its output ports from its own
//!   position, the system size, and the specification,
//! * **hardware gathering**: replies to a multicast are combined inside the
//!   switches using per-gather wait patterns, so the destination node
//!   receives exactly one message regardless of fan-in, and
//! * **freedom from deadlock** via crosspoint buffers (no inter-switch
//!   arbitration) and virtual cut-through flow control.
//!
//! # Modeling approach
//!
//! This crate is a *timing simulator* of that fabric, built for the
//! discrete-event system in `cenju4-sim`. Messages are walked through
//! their unique switch path at injection time, reserving time on each
//! output port they cross ([`Fabric`] keeps a `next_free` reservation per
//! port). Uncontended latency is `inject + stages·hop + eject`; contention,
//! replication serialization, and endpoint hot spots emerge from the port
//! reservations. This reproduces what the paper's crosspoint-buffer +
//! virtual-cut-through design achieves in hardware: no arbitration
//! stalls between switches, serialization only at output ports. See
//! DESIGN.md for the calibration of [`NetParams`] against Table 2.
//!
//! # Examples
//!
//! ```
//! use cenju4_directory::{NodeId, SystemSize};
//! use cenju4_des::SimTime;
//! use cenju4_network::{Fabric, NetParams, WireClass};
//!
//! let sys = SystemSize::new(16)?;
//! let mut net: Fabric<u32> = Fabric::new(sys, NetParams::default());
//! let dels = net.send_unicast(SimTime::ZERO, NodeId::new(0), NodeId::new(5),
//!                             false, 7, WireClass::Request);
//! // A lossless fabric (the default fault plan) delivers exactly once.
//! let d = &dels[0];
//! assert_eq!(d.node, NodeId::new(5));
//! // 2-stage machine: 280ns endpoint overhead + 2 x 130ns per stage.
//! assert_eq!(d.at.as_ns(), 280 + 2 * 130);
//! # Ok::<(), cenju4_directory::SystemSizeError>(())
//! ```
//!
//! The fabric can also misbehave on demand: a seed-driven [`FaultPlan`]
//! drops, duplicates, or delays messages deterministically (see
//! [`faults`]), which the protocol layer's recovery machinery must then
//! survive.

pub mod fabric;
pub mod faults;
pub mod params;
pub mod stats;
pub mod tables;
pub mod topology;

pub use fabric::{Deliveries, Delivery, Fabric, GatherId, Payload};
pub use faults::{FaultEvent, FaultKind, FaultPlan, LinkDown, NodeDown, OneShotFault, WireClass};
pub use params::{MulticastMode, NetParams};
pub use stats::NetStats;
pub use topology::Topology;
