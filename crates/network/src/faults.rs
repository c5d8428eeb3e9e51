//! Deterministic, seed-driven fault injection for the fabric.
//!
//! A [`FaultPlan`] describes how an unreliable fabric misbehaves: per-link
//! probabilities of dropping, duplicating, or delaying a message, targeted
//! one-shot faults ("drop the Nth reply on link (s, d)"), and link outage
//! windows. The plan is *deterministic*: the decision for a message depends
//! only on the plan seed, the link, and how many messages that link has
//! carried — never on cross-link interleaving or wall-clock state — so the
//! same plan replays identically under any schedule exploration order and
//! any sweep thread count.
//!
//! Faults model the *last link* into the destination NIC: a dropped
//! message still consumes source-side injection bandwidth, a duplicated
//! message arrives twice, a delayed message arrives late but in-order
//! guarantees between other pairs are untouched.

use crate::tables::LinkTable;
use cenju4_des::{SimTime, SplitMix64};
use cenju4_directory::NodeId;

/// Coarse classification of a wire message, used to target faults at a
/// protocol-meaningful slice of the traffic ("drop a reply", "duplicate an
/// invalidation") without the network crate knowing protocol types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WireClass {
    /// Master → home coherence requests (and home → slave forwards).
    Request,
    /// Home → master grants and slave → home replies.
    Reply,
    /// Invalidations and updates fanned out to sharers.
    Invalidation,
    /// Reply-less writebacks.
    WriteBack,
    /// Slave replies travelling through the gather tree.
    GatherReply,
    /// Anything else (user-level messages, test traffic).
    Other,
}

/// What an injected fault does to the affected message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The message never arrives.
    Drop,
    /// The message arrives, and a second copy arrives `after_ns` later —
    /// a spurious retransmission.
    Duplicate {
        /// Extra delay of the duplicate relative to the original.
        after_ns: u64,
    },
    /// The message arrives `by_ns` late.
    Delay {
        /// Added latency.
        by_ns: u64,
    },
}

/// A targeted fault that fires exactly once: the `nth` message matching
/// the link and class filters suffers `kind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OneShotFault {
    /// Restrict to one (src, dst) link, or `None` for any link.
    pub link: Option<(NodeId, NodeId)>,
    /// Restrict to one message class, or `None` for any class.
    pub class: Option<WireClass>,
    /// 1-based index among matching messages (`nth == 1` hits the first).
    pub nth: u64,
    /// The fault applied to that message.
    pub kind: FaultKind,
}

/// A link outage: every message on (src, dst) injected in
/// `[from_ns, until_ns)` is dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkDown {
    /// Sending side of the dead link.
    pub src: NodeId,
    /// Receiving side of the dead link.
    pub dst: NodeId,
    /// Start of the outage window (inclusive, ns).
    pub from_ns: u64,
    /// End of the outage window (exclusive, ns).
    pub until_ns: u64,
}

/// A node outage: every message into *or* out of `node` injected in
/// `[from_ns, until_ns)` is dropped — the node has gone silent. Use
/// `until_ns == u64::MAX` for a permanent kill.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeDown {
    /// The silenced node.
    pub node: NodeId,
    /// Start of the outage window (inclusive, ns).
    pub from_ns: u64,
    /// End of the outage window (exclusive, ns); `u64::MAX` kills the
    /// node for good.
    pub until_ns: u64,
}

/// A complete description of how the fabric misbehaves.
///
/// [`FaultPlan::none`] (also the `Default`) is the lossless fabric: no
/// probabilistic faults, no one-shots, no outages. The engine treats a
/// plan for which [`FaultPlan::is_none`] holds as "fabric is provably
/// lossless" and elides the whole recovery layer.
///
/// # Examples
///
/// ```
/// use cenju4_network::FaultPlan;
///
/// assert!(FaultPlan::none().is_none());
/// assert!(!FaultPlan::random(42, 10).is_none());
/// ```
#[derive(Debug, Default, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed for the probabilistic decisions.
    pub seed: u64,
    /// Per-message drop probability in permille (0..=1000).
    pub drop_permille: u16,
    /// Per-message duplication probability in permille.
    pub dup_permille: u16,
    /// Per-message delay probability in permille.
    pub delay_permille: u16,
    /// Maximum extra latency of a probabilistic delay (ns); the actual
    /// delay is drawn uniformly from `[1, max_delay_ns]`.
    pub max_delay_ns: u64,
    /// Targeted one-shot faults.
    pub one_shot: Vec<OneShotFault>,
    /// Link outage windows.
    pub down: Vec<LinkDown>,
    /// Node outage windows: every wire touching the node is silenced.
    pub node_down: Vec<NodeDown>,
}

cenju4_des::clone_fields!(FaultPlan {
    seed,
    drop_permille,
    dup_permille,
    delay_permille,
    max_delay_ns,
    one_shot,
    down,
    node_down,
});

impl FaultPlan {
    /// The lossless fabric: no faults of any kind.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether this plan can never inject a fault.
    pub fn is_none(&self) -> bool {
        self.drop_permille == 0
            && self.dup_permille == 0
            && self.delay_permille == 0
            && self.one_shot.is_empty()
            && self.down.is_empty()
            && self.node_down.is_empty()
    }

    /// A purely probabilistic plan: every message is dropped with
    /// probability `drop_permille`/1000, decided by `seed`.
    pub fn random(seed: u64, drop_permille: u16) -> Self {
        FaultPlan {
            seed,
            drop_permille,
            ..FaultPlan::default()
        }
    }

    /// Adds a targeted one-shot fault to the plan.
    pub fn with_one_shot(mut self, fault: OneShotFault) -> Self {
        self.one_shot.push(fault);
        self
    }

    /// Adds a link outage window to the plan.
    pub fn with_link_down(mut self, down: LinkDown) -> Self {
        self.down.push(down);
        self
    }

    /// Adds a node outage window to the plan. `until_ns == u64::MAX`
    /// kills the node permanently.
    pub fn with_node_down(mut self, down: NodeDown) -> Self {
        self.node_down.push(down);
        self
    }

    /// Whether `node` is inside one of the plan's outage windows at
    /// `now_ns`. This is the deterministic ground truth the failure
    /// detector's heartbeat probes consult: a real ping would be dropped
    /// exactly when this returns `true`, so computing the answer directly
    /// adds no fabric traffic and stays schedule-independent.
    pub fn node_down_at(&self, now_ns: u64, node: NodeId) -> bool {
        self.node_down
            .iter()
            .any(|d| d.node == node && d.from_ns <= now_ns && now_ns < d.until_ns)
    }

    /// When `node`, down at `now_ns`, next comes back up — the end of the
    /// containing outage window, skipping forward over any window that
    /// starts exactly where the previous one ends. `None` if the node is
    /// dead for good (a `u64::MAX` window).
    pub fn node_revives_at(&self, now_ns: u64, node: NodeId) -> Option<u64> {
        let mut t = now_ns;
        loop {
            let Some(d) = self
                .node_down
                .iter()
                .find(|d| d.node == node && d.from_ns <= t && t < d.until_ns)
            else {
                return Some(t);
            };
            if d.until_ns == u64::MAX {
                return None;
            }
            t = d.until_ns;
        }
    }
}

/// Record of one injected fault, for statistics and observers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Injection time of the afflicted message.
    pub at: SimTime,
    /// Sending node.
    pub src: NodeId,
    /// Intended receiving node.
    pub dst: NodeId,
    /// Class of the afflicted message.
    pub class: WireClass,
    /// What happened to it.
    pub kind: FaultKind,
}

/// Mutable decision state for a [`FaultPlan`]: per-link message counters
/// and per-one-shot hit counters. Owned by the fabric; reset whenever the
/// plan is replaced.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Messages seen so far per (src, dst) link — the deterministic
    /// per-link sequence the probabilistic decisions key off. A dense
    /// flat table; zero-sized when the plan is inert (`decide` bails
    /// before touching it).
    link_seen: LinkTable<u64>,
    /// Matching messages seen so far per one-shot fault.
    one_shot_seen: Vec<u64>,
}

cenju4_des::clone_fields!(FaultState {
    plan,
    link_seen,
    one_shot_seen
});

impl FaultState {
    /// The inert state of a lossless fabric: no table is allocated.
    pub(crate) fn empty() -> Self {
        FaultState {
            plan: FaultPlan::none(),
            link_seen: LinkTable::new(0),
            one_shot_seen: Vec::new(),
        }
    }

    pub(crate) fn new(plan: FaultPlan, nodes: usize) -> Self {
        let shots = plan.one_shot.len();
        // n² u64 slots: 8 MB at the 1024-node maximum, allocated only
        // when a plan can actually fault something.
        let table_nodes = if plan.is_none() { 0 } else { nodes };
        FaultState {
            plan,
            link_seen: LinkTable::new(table_nodes),
            one_shot_seen: vec![0; shots],
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn is_inert(&self) -> bool {
        self.plan.is_none()
    }

    /// Decides the fate of one message. One-shot faults take precedence
    /// over outage windows, which take precedence over the probabilistic
    /// roll; at most one fault ever applies to a message.
    pub(crate) fn decide(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        class: WireClass,
    ) -> Option<FaultKind> {
        if self.plan.is_none() {
            return None;
        }
        let count = {
            let c = self.link_seen.get_mut(src, dst);
            *c += 1;
            *c
        };
        for (i, shot) in self.plan.one_shot.iter().enumerate() {
            if let Some(link) = shot.link {
                if link != (src, dst) {
                    continue;
                }
            }
            if let Some(c) = shot.class {
                if c != class {
                    continue;
                }
            }
            self.one_shot_seen[i] += 1;
            if self.one_shot_seen[i] == shot.nth {
                return Some(shot.kind);
            }
        }
        {
            let t = now.as_ns();
            if self.plan.node_down_at(t, src) || self.plan.node_down_at(t, dst) {
                return Some(FaultKind::Drop);
            }
        }
        for d in &self.plan.down {
            if d.src == src && d.dst == dst {
                let t = now.as_ns();
                if d.from_ns <= t && t < d.until_ns {
                    return Some(FaultKind::Drop);
                }
            }
        }
        let total = self.plan.drop_permille as u64
            + self.plan.dup_permille as u64
            + self.plan.delay_permille as u64;
        if total == 0 {
            return None;
        }
        // One stream per (seed, link, per-link count): the decision is a
        // pure function of those inputs, independent of how traffic on
        // other links interleaves with this one.
        let mut rng = SplitMix64::new(
            self.plan
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((src.index() as u64) << 32)
                .wrapping_add((dst.index() as u64) << 16)
                .wrapping_add(count),
        );
        let roll = rng.next_below(1000);
        if roll < self.plan.drop_permille as u64 {
            Some(FaultKind::Drop)
        } else if roll < (self.plan.drop_permille + self.plan.dup_permille) as u64 {
            Some(FaultKind::Duplicate { after_ns: 0 })
        } else if roll < total {
            let by_ns = 1 + rng.next_below(self.plan.max_delay_ns.max(1));
            Some(FaultKind::Delay { by_ns })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn none_plan_is_inert() {
        let mut st = FaultState::new(FaultPlan::none(), 16);
        for i in 0..100 {
            assert_eq!(
                st.decide(SimTime::from_ns(i), n(0), n(1), WireClass::Request),
                None
            );
        }
    }

    /// The flat `LinkTable` per-link counter must be observationally
    /// identical to the `HashMap<(src, dst), u64>` it replaced: for a
    /// random interleaved traffic stream, every probabilistic decision
    /// must equal the one computed from a reference map-keyed count fed
    /// through the same pure (seed, link, count) roll.
    #[test]
    fn flat_counts_match_map_keyed_reference() {
        use cenju4_des::SplitMix64;
        use std::collections::HashMap;

        let plan = FaultPlan {
            seed: 0xFA_1175,
            drop_permille: 120,
            dup_permille: 90,
            delay_permille: 60,
            max_delay_ns: 500,
            one_shot: Vec::new(),
            down: Vec::new(),
            node_down: Vec::new(),
        };
        let nodes = 64u16;
        let mut st = FaultState::new(plan.clone(), nodes as usize);
        let mut reference: HashMap<(NodeId, NodeId), u64> = HashMap::new();
        let mut rng = SplitMix64::new(0x0DD_BA11);
        for i in 0..20_000u64 {
            let src = n(rng.next_below(nodes as u64) as u16);
            let dst = n(rng.next_below(nodes as u64) as u16);
            if src == dst {
                continue;
            }
            let got = st.decide(SimTime::from_ns(i), src, dst, WireClass::Other);
            let count = reference.entry((src, dst)).or_insert(0);
            *count += 1;
            // The same pure roll decide() documents: one stream per
            // (seed, link, per-link count).
            let mut roll_rng = SplitMix64::new(
                plan.seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((src.index() as u64) << 32)
                    .wrapping_add((dst.index() as u64) << 16)
                    .wrapping_add(*count),
            );
            let roll = roll_rng.next_below(1000);
            let want = if roll < 120 {
                Some(FaultKind::Drop)
            } else if roll < 210 {
                Some(FaultKind::Duplicate { after_ns: 0 })
            } else if roll < 270 {
                Some(FaultKind::Delay {
                    by_ns: 1 + roll_rng.next_below(500),
                })
            } else {
                None
            };
            assert_eq!(got, want, "link ({src:?} -> {dst:?}) event {i}");
        }
    }

    #[test]
    fn decisions_are_deterministic_per_link() {
        let mut a = FaultState::new(FaultPlan::random(7, 300), 16);
        let mut b = FaultState::new(FaultPlan::random(7, 300), 16);
        // Interleave unrelated traffic on another link in `b` only: the
        // (0 -> 1) decisions must be identical anyway.
        let mut da = Vec::new();
        let mut db = Vec::new();
        for i in 0..64u64 {
            da.push(a.decide(SimTime::from_ns(i), n(0), n(1), WireClass::Reply));
            let _ = b.decide(SimTime::from_ns(i), n(2), n(3), WireClass::Reply);
            db.push(b.decide(SimTime::from_ns(i), n(0), n(1), WireClass::Reply));
        }
        assert_eq!(da, db);
        assert!(da.iter().any(|d| d.is_some()), "300 permille never fired");
        assert!(da.iter().any(|d| d.is_none()), "300 permille always fired");
    }

    #[test]
    fn one_shot_hits_exactly_the_nth_match() {
        let plan = FaultPlan::none().with_one_shot(OneShotFault {
            link: Some((n(0), n(1))),
            class: Some(WireClass::Reply),
            nth: 2,
            kind: FaultKind::Drop,
        });
        let mut st = FaultState::new(plan, 16);
        // Non-matching class and link traffic does not advance the count.
        assert_eq!(
            st.decide(SimTime::ZERO, n(0), n(1), WireClass::Request),
            None
        );
        assert_eq!(st.decide(SimTime::ZERO, n(2), n(1), WireClass::Reply), None);
        assert_eq!(st.decide(SimTime::ZERO, n(0), n(1), WireClass::Reply), None);
        assert_eq!(
            st.decide(SimTime::ZERO, n(0), n(1), WireClass::Reply),
            Some(FaultKind::Drop)
        );
        // ...and only once.
        assert_eq!(st.decide(SimTime::ZERO, n(0), n(1), WireClass::Reply), None);
    }

    #[test]
    fn link_down_window_drops_inside_only() {
        let plan = FaultPlan::none().with_link_down(LinkDown {
            src: n(3),
            dst: n(0),
            from_ns: 100,
            until_ns: 200,
        });
        let mut st = FaultState::new(plan, 16);
        assert_eq!(
            st.decide(SimTime::from_ns(99), n(3), n(0), WireClass::Other),
            None
        );
        assert_eq!(
            st.decide(SimTime::from_ns(100), n(3), n(0), WireClass::Other),
            Some(FaultKind::Drop)
        );
        assert_eq!(
            st.decide(SimTime::from_ns(199), n(3), n(0), WireClass::Other),
            Some(FaultKind::Drop)
        );
        assert_eq!(
            st.decide(SimTime::from_ns(200), n(3), n(0), WireClass::Other),
            None
        );
        // Other links are unaffected even inside the window.
        assert_eq!(
            st.decide(SimTime::from_ns(150), n(0), n(3), WireClass::Other),
            None
        );
    }

    #[test]
    fn node_down_window_silences_every_wire_touching_the_node() {
        let plan = FaultPlan::none().with_node_down(NodeDown {
            node: n(2),
            from_ns: 100,
            until_ns: 200,
        });
        let mut st = FaultState::new(plan, 16);
        // Before the window: traffic flows.
        assert_eq!(
            st.decide(SimTime::from_ns(99), n(0), n(2), WireClass::Request),
            None
        );
        // Inside: both directions die, every class.
        assert_eq!(
            st.decide(SimTime::from_ns(100), n(0), n(2), WireClass::Request),
            Some(FaultKind::Drop)
        );
        assert_eq!(
            st.decide(SimTime::from_ns(150), n(2), n(0), WireClass::Reply),
            Some(FaultKind::Drop)
        );
        assert_eq!(
            st.decide(SimTime::from_ns(199), n(1), n(2), WireClass::GatherReply),
            Some(FaultKind::Drop)
        );
        // Wires not touching the node are unaffected inside the window.
        assert_eq!(
            st.decide(SimTime::from_ns(150), n(0), n(1), WireClass::Request),
            None
        );
        // After the window: revived.
        assert_eq!(
            st.decide(SimTime::from_ns(200), n(0), n(2), WireClass::Request),
            None
        );
    }

    #[test]
    fn permanent_kill_never_revives() {
        let plan = FaultPlan::none().with_node_down(NodeDown {
            node: n(1),
            from_ns: 50,
            until_ns: u64::MAX,
        });
        assert!(!plan.is_none(), "a node-down plan must arm the fabric");
        assert!(!plan.node_down_at(49, n(1)));
        assert!(plan.node_down_at(50, n(1)));
        assert!(plan.node_down_at(u64::MAX - 1, n(1)));
        assert_eq!(plan.node_revives_at(60, n(1)), None);
    }

    #[test]
    fn revival_query_skips_abutting_windows() {
        let plan = FaultPlan::none()
            .with_node_down(NodeDown {
                node: n(3),
                from_ns: 100,
                until_ns: 200,
            })
            .with_node_down(NodeDown {
                node: n(3),
                from_ns: 200,
                until_ns: 300,
            });
        assert_eq!(plan.node_revives_at(150, n(3)), Some(300));
        assert_eq!(plan.node_revives_at(250, n(3)), Some(300));
        // Already up: the query answers "now".
        assert_eq!(plan.node_revives_at(300, n(3)), Some(300));
    }

    #[test]
    fn drop_rate_roughly_matches_permille() {
        let mut st = FaultState::new(FaultPlan::random(1, 100), 16);
        let trials = 10_000;
        let drops = (0..trials)
            .filter(|&i| {
                st.decide(SimTime::from_ns(i), n(0), n(1), WireClass::Other)
                    .is_some()
            })
            .count();
        let rate = drops as f64 / trials as f64;
        assert!(
            (rate - 0.1).abs() < 0.02,
            "drop rate {rate} too far from 0.1"
        );
    }
}
