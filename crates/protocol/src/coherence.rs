//! The [`CoherenceProtocol`] seam: pluggable line-state machines.
//!
//! The paper's protocol is queuing MESI. This module makes the *decision
//! logic* of the processor side swappable: a [`CoherenceProtocol`]
//! classifies each access against the cached state ([`AccessDecision`]),
//! names the request a miss issues, and names the state a completed
//! write-through grants. Three protocols implement the seam:
//!
//! * [`MesiProtocol`] — the paper's invalidation-based default; its
//!   decisions reproduce the hard-coded MESI logic bit for bit;
//! * [`DragonProtocol`] — a four-state *update-based* protocol
//!   (M / E / S / Sm). Stores to shared or invalid lines write through
//!   the home, which pushes the fresh value to every sharer over the
//!   existing gathered-multicast update wires (Section 4.2.3's hardware)
//!   instead of invalidating them; the writer's copy lands in
//!   [`CacheState::SharedModified`];
//! * [`UpdateBlockProtocol`] — Section 4.2.3's update protocol with main
//!   memory as a third-level cache. It runs per block, not per machine:
//!   blocks marked with `Engine::mark_update_block` use it whatever the
//!   machine's protocol, and every other block uses the machine's.
//!
//! The home side stays request-kind-driven: it routes each request by
//! its [`ReqKind`] and consults the protocol only for a lone reader's
//! grant ([`CoherenceProtocol::readers_subscribe`]).

use crate::cache::CacheState;
use crate::engine::MemOp;
use crate::messages::ReqKind;
use core::fmt;

/// What the master does with a processor access, given its cached state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessDecision {
    /// Satisfied locally, no state change (load of any readable copy, or
    /// a store that already holds Modified).
    Hit,
    /// A store satisfied locally by silently upgrading Exclusive to
    /// Modified.
    StoreUpgrade,
    /// A coherence request of the given kind must be issued to the home.
    Miss(ReqKind),
}

/// A coherence protocol's decision logic, as seen from the master.
///
/// The seam covers exactly the three points where MESI was hard-coded:
/// hit/upgrade/miss classification, the request kind a miss (or nack
/// retry) issues, and the state granted when a write-through is
/// acknowledged. Everything else — the home's directory walk, the wire
/// messages, the slave reactions — is shared machinery keyed off the
/// request kind on the wire.
pub trait CoherenceProtocol: Sync {
    /// A short stable name ("mesi", "dragon") for CLI flags and reports.
    fn name(&self) -> &'static str;

    /// The request a master issues for `op` when `state` cannot satisfy
    /// it locally.
    fn request_kind(&self, op: MemOp, state: CacheState) -> ReqKind;

    /// Classifies a processor access. The default covers both protocols
    /// here: loads hit any readable copy, stores hit Modified and
    /// silently upgrade Exclusive, everything else misses with
    /// [`CoherenceProtocol::request_kind`].
    fn classify(&self, op: MemOp, state: CacheState) -> AccessDecision {
        match (op, state) {
            (MemOp::Load, s) if s.readable() => AccessDecision::Hit,
            (MemOp::Store, CacheState::Modified) => AccessDecision::Hit,
            (MemOp::Store, CacheState::Exclusive) => AccessDecision::StoreUpgrade,
            _ => AccessDecision::Miss(self.request_kind(op, state)),
        }
    }

    /// The cache state granted to the writer when the home acknowledges
    /// a store that went through it (an ownership upgrade under MESI, a
    /// write-through push under Dragon and on update blocks).
    fn store_ack_state(&self) -> CacheState;

    /// Whether readers *subscribe* to the block: the home never grants a
    /// lone reader Exclusive, and every node keeps the line in its
    /// main-memory third-level cache on data replies, store acks and
    /// update pushes, refilling L2 misses from there.
    fn readers_subscribe(&self) -> bool {
        false
    }
}

/// The paper's queuing MESI protocol (the default).
#[derive(Clone, Copy, Debug, Default)]
pub struct MesiProtocol;

impl CoherenceProtocol for MesiProtocol {
    fn name(&self) -> &'static str {
        "mesi"
    }

    fn request_kind(&self, op: MemOp, state: CacheState) -> ReqKind {
        match (op, state) {
            (MemOp::Load, _) => ReqKind::ReadShared,
            (MemOp::Store, CacheState::Shared) => ReqKind::Ownership,
            (MemOp::Store, _) => ReqKind::ReadExclusive,
        }
    }

    fn store_ack_state(&self) -> CacheState {
        CacheState::Modified
    }
}

/// A four-state update-based protocol in the Dragon family.
///
/// Loads behave exactly as under MESI (a lone reader is still granted
/// Exclusive, so Modified remains reachable through silent upgrades).
/// Stores that miss — or hit a merely-shared copy — write through the
/// home as [`ReqKind::Update`]: the home writes memory, pushes the fresh
/// line to every sharer, gathers their acks, and acknowledges the
/// writer, whose copy becomes [`CacheState::SharedModified`]. Sharers
/// keep their (updated) copies instead of being invalidated.
#[derive(Clone, Copy, Debug, Default)]
pub struct DragonProtocol;

impl CoherenceProtocol for DragonProtocol {
    fn name(&self) -> &'static str {
        "dragon"
    }

    fn request_kind(&self, op: MemOp, _state: CacheState) -> ReqKind {
        match op {
            MemOp::Load => ReqKind::ReadShared,
            MemOp::Store => ReqKind::Update,
        }
    }

    fn store_ack_state(&self) -> CacheState {
        CacheState::SharedModified
    }
}

/// Section 4.2.3's update protocol, selected per block by
/// `Engine::mark_update_block`.
///
/// Requests are Dragon's: loads read shared, stores write through the
/// home as [`ReqKind::Update`], which pushes the fresh line to every
/// subscriber. Unlike Dragon, readers subscribe: a lone reader is granted
/// Shared, never Exclusive, and the writer keeps a Shared copy — so the
/// block is never Dirty and never held Modified or Exclusive. Each
/// subscriber also keeps the line in its main memory, and an L2 miss
/// refills from there at local cost.
///
/// Not a [`ProtocolId`]: a machine cannot run it as its protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateBlockProtocol;

impl CoherenceProtocol for UpdateBlockProtocol {
    fn name(&self) -> &'static str {
        "update-block"
    }

    fn request_kind(&self, op: MemOp, state: CacheState) -> ReqKind {
        DragonProtocol.request_kind(op, state)
    }

    fn store_ack_state(&self) -> CacheState {
        CacheState::Shared
    }

    fn readers_subscribe(&self) -> bool {
        true
    }
}

/// Selector for the available coherence protocols: stable names for CLI
/// flags, a parser that can list its variants, and a
/// [`CoherenceProtocol`] handle per variant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ProtocolId {
    /// The paper's queuing MESI (the default).
    #[default]
    Mesi,
    /// The update-based Dragon variant.
    Dragon,
}

impl ProtocolId {
    /// Every available protocol.
    pub const ALL: [ProtocolId; 2] = [ProtocolId::Mesi, ProtocolId::Dragon];

    /// The stable name used by CLI flags and reports.
    pub fn name(self) -> &'static str {
        self.protocol().name()
    }

    /// Parses a name produced by [`ProtocolId::name`].
    pub fn parse(s: &str) -> Option<ProtocolId> {
        ProtocolId::ALL.into_iter().find(|p| p.name() == s)
    }

    /// The protocol's decision logic.
    pub fn protocol(self) -> &'static dyn CoherenceProtocol {
        match self {
            ProtocolId::Mesi => &MesiProtocol,
            ProtocolId::Dragon => &DragonProtocol,
        }
    }
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_names_round_trip() {
        for id in ProtocolId::ALL {
            assert_eq!(ProtocolId::parse(id.name()), Some(id));
            assert_eq!(id.to_string(), id.name());
        }
        assert_eq!(ProtocolId::parse("no-such-protocol"), None);
        assert_eq!(ProtocolId::default(), ProtocolId::Mesi);
    }

    #[test]
    fn mesi_matches_the_hard_coded_logic() {
        let p = MesiProtocol;
        use AccessDecision::*;
        use CacheState::*;
        assert_eq!(p.classify(MemOp::Load, Modified), Hit);
        assert_eq!(p.classify(MemOp::Load, Shared), Hit);
        assert_eq!(p.classify(MemOp::Load, Invalid), Miss(ReqKind::ReadShared));
        assert_eq!(p.classify(MemOp::Store, Modified), Hit);
        assert_eq!(p.classify(MemOp::Store, Exclusive), StoreUpgrade);
        assert_eq!(p.classify(MemOp::Store, Shared), Miss(ReqKind::Ownership));
        assert_eq!(
            p.classify(MemOp::Store, Invalid),
            Miss(ReqKind::ReadExclusive)
        );
        assert_eq!(p.store_ack_state(), Modified);
    }

    #[test]
    fn dragon_stores_write_through() {
        let p = DragonProtocol;
        use AccessDecision::*;
        use CacheState::*;
        // Loads and writable stores behave exactly as under MESI.
        assert_eq!(p.classify(MemOp::Load, SharedModified), Hit);
        assert_eq!(p.classify(MemOp::Store, Modified), Hit);
        assert_eq!(p.classify(MemOp::Store, Exclusive), StoreUpgrade);
        // Everything else writes through the home as an update.
        for s in [Shared, SharedModified, Invalid] {
            assert_eq!(p.classify(MemOp::Store, s), Miss(ReqKind::Update));
        }
        assert_eq!(p.classify(MemOp::Load, Invalid), Miss(ReqKind::ReadShared));
        assert_eq!(p.store_ack_state(), SharedModified);
        assert!(!p.readers_subscribe());
        assert!(!MesiProtocol.readers_subscribe());
    }

    #[test]
    fn update_blocks_subscribe_and_write_through() {
        let p = UpdateBlockProtocol;
        use AccessDecision::*;
        use CacheState::*;
        // An update block only ever holds Shared or Invalid.
        assert_eq!(p.classify(MemOp::Load, Shared), Hit);
        assert_eq!(p.classify(MemOp::Load, Invalid), Miss(ReqKind::ReadShared));
        assert_eq!(p.classify(MemOp::Store, Shared), Miss(ReqKind::Update));
        assert_eq!(p.classify(MemOp::Store, Invalid), Miss(ReqKind::Update));
        // The writer keeps a Shared copy, and readers subscribe.
        assert_eq!(p.store_ack_state(), Shared);
        assert!(p.readers_subscribe());
        // Selected per block only: no machine-wide id exposes it.
        assert!(ProtocolId::ALL.iter().all(|id| id.name() != p.name()));
        assert_eq!(ProtocolId::parse(p.name()), None);
    }
}
