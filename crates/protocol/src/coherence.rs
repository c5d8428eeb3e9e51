//! The coherence protocols' processor-side decisions, as one closed table.
//!
//! The paper's protocol is queuing MESI. Three protocols run here, and
//! [`Rules`] holds what differs between them: how an access is
//! classified against the cached state ([`AccessDecision`]), the request
//! a miss issues, the state a completed write-through grants, and
//! whether readers subscribe. Everything else — the home's directory
//! walk, the wire messages, the slave reactions — is shared machinery
//! keyed off the request kind on the wire.
//!
//! * [`Rules::Mesi`] — the paper's invalidation-based default;
//! * [`Rules::Dragon`] — a four-state *update-based* protocol
//!   (M / E / S / Sm). Stores to shared or invalid lines write through
//!   the home, which pushes the fresh value to every sharer over the
//!   existing gathered-multicast update wires (Section 4.2.3's hardware)
//!   instead of invalidating them; the writer's copy lands in
//!   [`CacheState::SharedModified`];
//! * [`Rules::UpdateBlock`] — Section 4.2.3's update protocol with main
//!   memory as a third-level cache. It runs per block, not per machine:
//!   blocks marked with `Engine::mark_update_block` use it whatever the
//!   machine's protocol, and every other block uses the machine's.
//!
//! A machine's protocol is a [`ProtocolId`] (MESI or Dragon). The home
//! side routes each request by its [`ReqKind`] and consults the rules
//! only for a lone reader's grant ([`Rules::readers_subscribe`]).

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

/// The decisions of one coherence protocol, as seen from the master.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rules {
    /// The paper's queuing MESI.
    Mesi,
    /// A four-state update protocol in the Dragon family. Loads behave
    /// exactly as under MESI (a lone reader is still granted Exclusive,
    /// so Modified remains reachable through silent upgrades). Stores
    /// that miss — or hit a merely-shared copy — write through the home
    /// as [`ReqKind::Update`]: the home writes memory, pushes the fresh
    /// line to every sharer, gathers their acks, and acknowledges the
    /// writer, whose copy becomes [`CacheState::SharedModified`].
    Dragon,
    /// Section 4.2.3's update protocol, selected per block by
    /// `Engine::mark_update_block`; no [`ProtocolId`] names it. Requests
    /// are Dragon's, but readers subscribe: a lone reader is granted
    /// Shared, never Exclusive, and the writer keeps a Shared copy — so
    /// the block is never Dirty and never held Modified or Exclusive.
    /// Each subscriber also keeps the line in its main memory, and an L2
    /// miss refills from there at local cost.
    UpdateBlock,
}

impl Rules {
    /// The request a master issues for `op` when `state` cannot satisfy
    /// it locally.
    pub fn request_kind(self, op: MemOp, state: CacheState) -> ReqKind {
        match (self, op, state) {
            (_, MemOp::Load, _) => ReqKind::ReadShared,
            (Rules::Mesi, MemOp::Store, CacheState::Shared) => ReqKind::Ownership,
            (Rules::Mesi, MemOp::Store, _) => ReqKind::ReadExclusive,
            (Rules::Dragon | Rules::UpdateBlock, MemOp::Store, _) => ReqKind::Update,
        }
    }

    /// Classifies a processor access: loads hit any readable copy,
    /// stores hit Modified and silently upgrade Exclusive, everything
    /// else misses with [`Rules::request_kind`].
    pub fn classify(self, op: MemOp, state: CacheState) -> AccessDecision {
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
    pub fn store_ack_state(self) -> CacheState {
        match self {
            Rules::Mesi => CacheState::Modified,
            Rules::Dragon => CacheState::SharedModified,
            Rules::UpdateBlock => CacheState::Shared,
        }
    }

    /// Whether readers *subscribe* to the block: the home never grants a
    /// lone reader Exclusive, and every node keeps the line in its
    /// main-memory third-level cache on data replies, store acks and
    /// update pushes, refilling L2 misses from there.
    pub fn readers_subscribe(self) -> bool {
        self == Rules::UpdateBlock
    }
}

/// Selector for a machine's coherence protocol: stable names for CLI
/// flags, a parser that can list its variants, and the [`Rules`] each
/// variant runs.
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
        match self {
            ProtocolId::Mesi => "mesi",
            ProtocolId::Dragon => "dragon",
        }
    }

    /// Parses a name produced by [`ProtocolId::name`].
    pub fn parse(s: &str) -> Option<ProtocolId> {
        ProtocolId::ALL.into_iter().find(|p| p.name() == s)
    }

    /// The protocol's decision logic.
    pub fn rules(self) -> Rules {
        match self {
            ProtocolId::Mesi => Rules::Mesi,
            ProtocolId::Dragon => Rules::Dragon,
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
        let p = Rules::Mesi;
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
        let p = Rules::Dragon;
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
        assert!(!Rules::Mesi.readers_subscribe());
    }

    #[test]
    fn update_blocks_subscribe_and_write_through() {
        let p = Rules::UpdateBlock;
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
        assert!(ProtocolId::ALL.iter().all(|id| id.rules() != p));
    }
}
