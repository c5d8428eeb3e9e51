//! The network fabric: injection, routing, multicast replication, and
//! in-switch reply gathering, with per-port time reservations — plus
//! optional deterministic fault injection ([`FaultPlan`]).

use crate::faults::{FaultEvent, FaultKind, FaultPlan, FaultState, WireClass};
use crate::params::{MulticastMode, NetParams};
use crate::stats::NetStats;
use crate::tables::port_index;
use crate::topology::Topology;
use cenju4_des::{Duration, FxHashMap, FxHasher, MultisetDigest, SimTime};
use cenju4_directory::nodemap::DestSpec;
use cenju4_directory::{NodeId, SystemSize};
use std::hash::{Hash, Hasher};

/// A message payload that can be folded together by the gathering hardware.
///
/// When the network combines the replies of a multicast, the payloads of
/// the merged messages are folded pairwise with [`Payload::combine`]. For
/// invalidation acknowledgements this is typically a logical OR of status
/// flags; for unit payloads it is a no-op.
pub trait Payload: Clone + std::fmt::Debug {
    /// Folds `other` into `self`. Must be commutative and associative —
    /// the switches merge replies in arrival order, which depends on
    /// network timing.
    fn combine(&mut self, other: Self);
}

impl Payload for () {
    fn combine(&mut self, _other: Self) {}
}

impl Payload for u32 {
    /// Summing combiner, convenient for counting replies in tests.
    fn combine(&mut self, other: Self) {
        *self += other;
    }
}

/// Identifies one open gather transaction.
pub type GatherId = u64;

/// A message handed to a destination node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery<P> {
    /// When the destination NIC hands the message to the node.
    pub at: SimTime,
    /// The receiving node.
    pub node: NodeId,
    /// The sending node (for a combined gather message: the slave whose
    /// reply completed the gather).
    pub src: NodeId,
    /// The payload (combined across replies for a gather delivery).
    pub payload: P,
    /// Whether the message carried a cache line.
    pub data: bool,
    /// For multicast deliveries: the gather transaction the recipient
    /// must reply to, if any.
    pub gather: Option<GatherId>,
}

/// The deliveries of one point-to-point send: zero (dropped), one
/// (lossless), or two (fault-duplicated). Inline — a send on the hot
/// path never touches the heap for its result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Deliveries<P> {
    /// The fault plan dropped the message.
    None,
    /// The lossless (and delayed) case: exactly one delivery.
    One(Delivery<P>),
    /// The fault plan duplicated the message: original, then the copy.
    Two(Delivery<P>, Delivery<P>),
}

impl<P> Deliveries<P> {
    /// Number of deliveries.
    pub fn len(&self) -> usize {
        match self {
            Deliveries::None => 0,
            Deliveries::One(_) => 1,
            Deliveries::Two(..) => 2,
        }
    }

    /// Whether the message was dropped.
    pub fn is_empty(&self) -> bool {
        matches!(self, Deliveries::None)
    }

    /// Iterates the deliveries in arrival-independent send order.
    pub fn iter(&self) -> impl Iterator<Item = &Delivery<P>> {
        let (a, b) = match self {
            Deliveries::None => (None, None),
            Deliveries::One(d) => (Some(d), None),
            Deliveries::Two(d, e) => (Some(d), Some(e)),
        };
        a.into_iter().chain(b)
    }
}

impl<P> IntoIterator for Deliveries<P> {
    type Item = Delivery<P>;
    type IntoIter =
        std::iter::Chain<std::option::IntoIter<Delivery<P>>, std::option::IntoIter<Delivery<P>>>;

    fn into_iter(self) -> Self::IntoIter {
        let (a, b) = match self {
            Deliveries::None => (None, None),
            Deliveries::One(d) => (Some(d), None),
            Deliveries::Two(d, e) => (Some(d), Some(e)),
        };
        a.into_iter().chain(b)
    }
}

impl<P> std::ops::Index<usize> for Deliveries<P> {
    type Output = Delivery<P>;

    fn index(&self, i: usize) -> &Delivery<P> {
        match (self, i) {
            (Deliveries::One(d), 0) | (Deliveries::Two(d, _), 0) | (Deliveries::Two(_, d), 1) => d,
            _ => panic!("delivery index {i} out of bounds (len {})", self.len()),
        }
    }
}

/// Per-gather, per-switch table entry: the wait pattern and partial merge.
#[derive(Clone, Debug)]
struct SwitchGather<P> {
    /// Bitmask of input ports still awaited.
    waiting: u8,
    /// Payload merged so far at this switch.
    merged: Option<P>,
    /// Latest merge completion time.
    latest: SimTime,
}

/// State of one open gather transaction.
#[derive(Clone, Debug)]
struct GatherState<P> {
    home: NodeId,
    spec: DestSpec,
    /// Number of repliers (existing destinations of the multicast).
    expected: u32,
    /// Replies injected so far.
    received: u32,
    /// Emulation mode: payload accumulated at the home NIC.
    merged: Option<P>,
}

/// The multistage network fabric.
///
/// See the crate docs for the modeling approach. All methods take the
/// current simulation time `now`; calls must be made in nondecreasing
/// `now` order (the discrete-event loop guarantees this).
#[derive(Debug)]
pub struct Fabric<P: Payload> {
    topo: Topology,
    params: NetParams,
    /// `next_free` reservation per output port, a dense flat table
    /// indexed by [`port_index`] (the geometry is fixed at build time).
    port_free: Vec<SimTime>,
    /// Cached `topo.switches_per_stage()`, the port-table row stride.
    switches_per_stage: u32,
    /// Per-node injection-side NIC reservation.
    inject_free: Vec<SimTime>,
    /// Per-node ejection-side NIC reservation.
    eject_free: Vec<SimTime>,
    gathers: FxHashMap<GatherId, GatherState<P>>,
    /// Hardware mode: the per-switch wait patterns of every open gather,
    /// keyed by (gather, stage, label). One flat table rather than one
    /// per gather, so a `clone_from` into a fabric reuses it instead of
    /// allocating a table for each open gather.
    switch_gathers: FxHashMap<(GatherId, u32, u32), SwitchGather<P>>,
    next_gather: GatherId,
    stats: NetStats,
    /// Fault-injection plan and its deterministic decision state.
    fault: FaultState,
    /// Injected faults awaiting collection by the observer layer.
    fault_events: Vec<FaultEvent>,
}

cenju4_des::clone_fields!(Fabric<P: Payload> {
    topo,
    params,
    port_free,
    switches_per_stage,
    inject_free,
    eject_free,
    gathers,
    switch_gathers,
    next_gather,
    stats,
    fault,
    fault_events,
});

impl<P: Payload> Fabric<P> {
    /// Creates a fabric for a machine of the given size.
    pub fn new(sys: SystemSize, params: NetParams) -> Self {
        let n = sys.nodes() as usize;
        let topo = Topology::new(sys);
        let sps = topo.switches_per_stage();
        let ports = (topo.stages() * sps) as usize * 4;
        Fabric {
            topo,
            params,
            port_free: vec![SimTime::ZERO; ports],
            switches_per_stage: sps,
            inject_free: vec![SimTime::ZERO; n],
            eject_free: vec![SimTime::ZERO; n],
            gathers: FxHashMap::default(),
            switch_gathers: FxHashMap::default(),
            next_gather: 0,
            stats: NetStats::new(),
            fault: FaultState::empty(),
            fault_events: Vec::new(),
        }
    }

    /// The network geometry.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The timing parameters in force.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Number of gathers currently open.
    pub fn open_gathers(&self) -> usize {
        self.gathers.len()
    }

    /// Whether gather `id` is still open.
    pub fn is_gather_open(&self, id: GatherId) -> bool {
        self.gathers.contains_key(&id)
    }

    /// Folds the open-gather state — each gather's progress and, per
    /// switch, its wait pattern and partially merged payload — into a
    /// hasher. Part of a model checker's state fingerprint: two
    /// interleavings that delivered different subsets of a gather's
    /// replies are different states even when their pending event sets
    /// agree. The gathers and the switch entries each fold as one
    /// [`MultisetDigest`], so the result does not depend on map
    /// iteration order and nothing is sorted or allocated. Payloads are
    /// digested through `payload` since [`Payload`] itself requires no
    /// hashing. Timestamps are excluded.
    pub fn fold_gathers<H: Hasher>(&self, h: &mut H, mut payload: impl FnMut(&P, &mut FxHasher)) {
        let mut merged = |m: &Option<P>, d: &mut FxHasher| match m {
            Some(p) => {
                true.hash(d);
                payload(p, d);
            }
            None => false.hash(d),
        };
        let mut gathers = MultisetDigest::default();
        for (id, g) in &self.gathers {
            let mut d = FxHasher::default();
            (id, g.home, g.expected, g.received).hash(&mut d);
            merged(&g.merged, &mut d);
            gathers.add(d.finish());
        }
        let mut switches = MultisetDigest::default();
        for (key, sw) in &self.switch_gathers {
            let mut d = FxHasher::default();
            (key, sw.waiting).hash(&mut d);
            merged(&sw.merged, &mut d);
            switches.add(d.finish());
        }
        (gathers, switches).hash(h);
    }

    /// The sort-based fold [`Fabric::fold_gathers`] replaced, in
    /// canonical (gather id, switch key) order: a test reference for the
    /// fingerprint differential tests, not for library use.
    #[doc(hidden)]
    pub fn fold_gathers_sorted<H: Hasher>(&self, h: &mut H, mut payload: impl FnMut(&P, &mut H)) {
        let mut ids: Vec<GatherId> = self.gathers.keys().copied().collect();
        ids.sort_unstable();
        ids.len().hash(h);
        let mut switches: Vec<_> = self.switch_gathers.iter().collect();
        switches.sort_unstable_by_key(|(k, _)| **k);
        let mut switches = switches.into_iter().peekable();
        for id in ids {
            let g = &self.gathers[&id];
            (id, g.home, g.expected, g.received).hash(h);
            while let Some((&(_, stage, label), sw)) = switches.next_if(|(k, _)| k.0 == id) {
                ((stage, label), sw.waiting).hash(h);
                match &sw.merged {
                    Some(p) => {
                        true.hash(h);
                        payload(p, h);
                    }
                    None => false.hash(h),
                }
            }
            match &g.merged {
                Some(p) => {
                    true.hash(h);
                    payload(p, h);
                }
                None => false.hash(h),
            }
        }
    }

    /// Installs a fault plan, resetting all fault decision state (per-link
    /// message counters, one-shot hit counters, pending fault events).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = FaultState::new(plan, self.topo.system().nodes() as usize);
        self.fault_events.clear();
    }

    /// The fault plan in force ([`FaultPlan::none`] by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        self.fault.plan()
    }

    /// Drains the faults injected since the last call, oldest first.
    pub fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.fault_events)
    }

    /// Records an injected fault in the stats and the event drain.
    fn record_fault(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        class: WireClass,
        kind: FaultKind,
    ) {
        match kind {
            FaultKind::Drop => self.stats.faults_dropped.incr(),
            FaultKind::Duplicate { .. } => self.stats.faults_duplicated.incr(),
            FaultKind::Delay { .. } => self.stats.faults_delayed.incr(),
        }
        self.fault_events.push(FaultEvent {
            at,
            src,
            dst,
            class,
            kind,
        });
    }

    // ----- internal timing helpers -------------------------------------

    fn occupancy(&self, data: bool) -> Duration {
        if data {
            self.params.port_occupancy + self.params.data_port_extra
        } else {
            self.params.port_occupancy
        }
    }

    fn hop(&self, data: bool) -> Duration {
        if data {
            self.params.hop_latency + self.params.data_hop_extra
        } else {
            self.params.hop_latency
        }
    }

    /// Reserves the injection NIC of `src` and returns the time the
    /// message reaches the first switch stage.
    fn inject(&mut self, now: SimTime, src: NodeId) -> SimTime {
        let free = &mut self.inject_free[src.as_usize()];
        let depart = now.max(*free);
        self.stats.endpoint_wait.push_duration(depart.since(now));
        *free = depart + self.params.inject_occupancy;
        depart + self.params.inject_latency
    }

    /// Reserves the ejection NIC of `dst` and returns the delivery time.
    fn eject(&mut self, arrival: SimTime, dst: NodeId) -> SimTime {
        let free = &mut self.eject_free[dst.as_usize()];
        let depart = arrival.max(*free);
        self.stats
            .endpoint_wait
            .push_duration(depart.since(arrival));
        *free = depart + self.params.eject_occupancy;
        depart + self.params.eject_latency
    }

    /// Reserves output port `p` of the switch (stage, label) for a message
    /// available at `t`; returns the arrival time at the next stage.
    fn cross(&mut self, stage: u32, label: u32, p: u8, t: SimTime, data: bool) -> SimTime {
        let occ = self.occupancy(data);
        let hop = self.hop(data);
        let free = &mut self.port_free[port_index(self.switches_per_stage, stage, label, p)];
        let depart = t.max(*free);
        self.stats.port_wait.push_duration(depart.since(t));
        *free = depart + occ;
        depart + hop
    }

    // ----- unicast ------------------------------------------------------

    /// Walks one message through its unique switch path: injection plus
    /// every stage crossing. Returns the arrival time at the eject NIC.
    fn route(&mut self, now: SimTime, src: NodeId, dst: NodeId, data: bool) -> SimTime {
        let mut t = self.inject(now, src);
        let (s, d) = (src.index() as u32, dst.index() as u32);
        for j in 0..self.topo.stages() {
            let sw = self.topo.switch_on_path(s, d, j);
            let p = self.topo.output_port(d, j);
            t = self.cross(j, sw.label, p, t, data);
        }
        t
    }

    /// A fault-free point-to-point delivery (the lossless-fabric path,
    /// also used by multicast emulation so copy faults apply exactly once).
    fn unicast_delivery(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        data: bool,
        payload: P,
    ) -> Delivery<P> {
        self.stats.unicasts.incr();
        let t = self.route(now, src, dst, data);
        let at = self.eject(t, dst);
        self.stats.delivered.incr();
        Delivery {
            at,
            node: dst,
            src,
            payload,
            data,
            gather: None,
        }
    }

    /// Sends a point-to-point message of the given [`WireClass`]. Returns
    /// its deliveries: exactly one on a lossless fabric, none when the
    /// fault plan drops the message (it still consumes fabric bandwidth —
    /// the loss is modeled on the last link into the destination NIC), and
    /// two when the plan duplicates it.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`: node-local traffic does not use the network
    /// (the paper's "shared local" accesses never touch the fabric).
    pub fn send_unicast(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        data: bool,
        payload: P,
        class: WireClass,
    ) -> Deliveries<P> {
        assert_ne!(src, dst, "local traffic must not use the network");
        match self.fault.decide(now, src, dst, class) {
            None => Deliveries::One(self.unicast_delivery(now, src, dst, data, payload)),
            Some(FaultKind::Drop) => {
                self.stats.unicasts.incr();
                let _ = self.route(now, src, dst, data);
                self.record_fault(now, src, dst, class, FaultKind::Drop);
                Deliveries::None
            }
            Some(k @ FaultKind::Duplicate { after_ns }) => {
                let d = self.unicast_delivery(now, src, dst, data, payload.clone());
                let dup = self.unicast_delivery(
                    now + Duration::from_ns(after_ns),
                    src,
                    dst,
                    data,
                    payload,
                );
                self.record_fault(now, src, dst, class, k);
                Deliveries::Two(d, dup)
            }
            Some(k @ FaultKind::Delay { by_ns }) => {
                let mut d = self.unicast_delivery(now, src, dst, data, payload);
                d.at += Duration::from_ns(by_ns);
                self.record_fault(now, src, dst, class, k);
                Deliveries::One(d)
            }
        }
    }

    /// Sends a bulk (multi-packet) point-to-point transfer of `bytes`
    /// bytes: the injection NIC is occupied for the full serialization
    /// time (`bytes / bulk_bytes_per_us`), and delivery completes when the
    /// last byte has crossed (header latency + serialization tail).
    /// This models the user-level message-passing hardware, which shares
    /// the network with DSM traffic. Bulk transfers are never faulted by
    /// the [`FaultPlan`]: the message-passing DMA engine runs its own
    /// end-to-end protocol outside this model's scope.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn send_bulk(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        payload: P,
    ) -> Delivery<P> {
        assert_ne!(src, dst, "local traffic must not use the network");
        self.stats.unicasts.incr();
        let serialization =
            Duration::from_ns(bytes.saturating_mul(1_000) / self.params.bulk_bytes_per_us.max(1));
        // Head of the transfer: a normal injection, but the NIC stays
        // busy for the whole serialization time.
        let free = &mut self.inject_free[src.as_usize()];
        let depart = now.max(*free);
        self.stats.endpoint_wait.push_duration(depart.since(now));
        *free = depart + self.params.inject_occupancy + serialization;
        let mut t = depart + self.params.inject_latency;
        let (s, d) = (src.index() as u32, dst.index() as u32);
        for j in 0..self.topo.stages() {
            let sw = self.topo.switch_on_path(s, d, j);
            let p = self.topo.output_port(d, j);
            t = self.cross(j, sw.label, p, t, true);
        }
        // The tail streams behind the head (virtual cut-through), and the
        // receiving NIC is busy for the whole transfer too — concurrent
        // bulk arrivals at one node serialize at its DMA engine.
        let arrival = t + serialization;
        let free = &mut self.eject_free[dst.as_usize()];
        let depart = arrival.max(*free);
        self.stats
            .endpoint_wait
            .push_duration(depart.since(arrival));
        *free = depart + self.params.eject_occupancy + serialization;
        let at = depart + self.params.eject_latency;
        self.stats.delivered.incr();
        Delivery {
            at,
            node: dst,
            src,
            payload,
            data: true,
            gather: None,
        }
    }

    // ----- gather lifecycle ----------------------------------------------

    /// Opens a gather transaction: the home declares that it is about to
    /// multicast to `spec` and that the replies must be combined back to
    /// it. Returns the identifier the multicast (and the replies) carry.
    ///
    /// The hardware uses 10-bit identifiers indexing 1024-entry tables in
    /// every switch; this model allocates identifiers without bound but
    /// records the concurrency high-water mark so experiments can verify
    /// the 1024-entry budget holds.
    ///
    /// # Panics
    ///
    /// Panics if `spec` contains no existing destination — a gather with
    /// no repliers would never complete.
    pub fn open_gather(&mut self, home: NodeId, spec: DestSpec) -> GatherId {
        let expected = spec.fanout(self.topo.system());
        assert!(expected > 0, "gather with no repliers");
        let id = self.next_gather;
        self.next_gather += 1;
        self.gathers.insert(
            id,
            GatherState {
                home,
                spec,
                expected,
                received: 0,
                merged: None,
            },
        );
        self.stats.gather_concurrency.add(1);
        id
    }

    /// The number of repliers an open gather expects.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an open gather.
    pub fn gather_expected(&self, id: GatherId) -> u32 {
        self.gathers[&id].expected
    }

    // ----- multicast ------------------------------------------------------

    /// Sends one message to every existing destination in `spec`.
    ///
    /// In [`MulticastMode::Hardware`] the message is replicated inside the
    /// switches (one injection, in-switch copies); in
    /// [`MulticastMode::SinglecastEmulation`] the source injects one
    /// singlecast per destination, serialized at its NIC. Destinations
    /// that equal `src` are still delivered (the requester can appear in a
    /// bit-pattern destination spec and must acknowledge its own
    /// invalidation).
    ///
    /// The fault plan applies per copy, on the last link into each
    /// destination: a dropped copy vanishes from the result, a duplicated
    /// copy appears twice (same gather identifier — a spurious
    /// retransmission), a delayed copy arrives late. Loopback copies
    /// (`dst == src`) never cross a link and are never faulted.
    ///
    /// Returns all deliveries, in no particular order.
    #[allow(clippy::too_many_arguments)]
    pub fn send_multicast(
        &mut self,
        now: SimTime,
        src: NodeId,
        spec: DestSpec,
        data: bool,
        payload: P,
        gather: Option<GatherId>,
        class: WireClass,
    ) -> Vec<Delivery<P>> {
        self.stats.multicasts.incr();
        let sys = self.topo.system();
        let mut out = match self.params.multicast {
            MulticastMode::Hardware => {
                let mut out = Vec::new();
                let t0 = self.inject(now, src) + self.params.multicast_setup;
                self.descend(
                    0,
                    0,
                    src.index() as u32,
                    t0,
                    &spec,
                    data,
                    &payload,
                    gather,
                    &mut out,
                );
                out
            }
            MulticastMode::SinglecastEmulation => {
                let dests = spec.destinations(sys);
                let mut out = Vec::with_capacity(dests.len());
                for d in dests {
                    self.stats.multicast_copies.incr();
                    let mut del = if d == src {
                        // Loopback: the local slave module is reached
                        // inside the node, without NIC serialization.
                        let at = now + self.params.inject_latency + self.params.eject_latency;
                        self.stats.delivered.incr();
                        Delivery {
                            at,
                            node: d,
                            src,
                            payload: payload.clone(),
                            data,
                            gather: None,
                        }
                    } else {
                        self.unicast_delivery(now, src, d, data, payload.clone())
                    };
                    del.gather = gather;
                    out.push(del);
                }
                out
            }
        };
        if !self.fault.is_inert() {
            self.apply_copy_faults(now, src, class, &mut out);
        }
        out
    }

    /// Applies the fault plan to each multicast copy independently, on the
    /// (src, destination) link it ends on.
    fn apply_copy_faults(
        &mut self,
        now: SimTime,
        src: NodeId,
        class: WireClass,
        out: &mut Vec<Delivery<P>>,
    ) {
        let mut i = 0;
        while i < out.len() {
            let dst = out[i].node;
            if dst == src {
                // Node-internal copy: no link to fault.
                i += 1;
                continue;
            }
            match self.fault.decide(now, src, dst, class) {
                None => i += 1,
                Some(FaultKind::Drop) => {
                    self.record_fault(now, src, dst, class, FaultKind::Drop);
                    out.remove(i);
                }
                Some(k @ FaultKind::Duplicate { after_ns }) => {
                    let mut dup = out[i].clone();
                    dup.at += Duration::from_ns(after_ns);
                    self.record_fault(now, src, dst, class, k);
                    out.insert(i + 1, dup);
                    i += 2;
                }
                Some(k @ FaultKind::Delay { by_ns }) => {
                    out[i].at += Duration::from_ns(by_ns);
                    self.record_fault(now, src, dst, class, k);
                    i += 1;
                }
            }
        }
    }

    /// Recursive in-switch replication: at stage `j`, with the routing
    /// prefix accumulated so far, fan out to every output port whose
    /// reachable subtree intersects the destination spec.
    #[allow(clippy::too_many_arguments)]
    fn descend(
        &mut self,
        j: u32,
        prefix: u32,
        src_addr: u32,
        t: SimTime,
        spec: &DestSpec,
        data: bool,
        payload: &P,
        gather: Option<GatherId>,
        out: &mut Vec<Delivery<P>>,
    ) {
        let stages = self.topo.stages();
        if j == stages {
            // `prefix` is now the complete endpoint address.
            let node = NodeId::new(prefix as u16);
            let at = self.eject(t, node);
            self.stats.delivered.incr();
            self.stats.multicast_copies.incr();
            out.push(Delivery {
                at,
                node,
                src: NodeId::new(src_addr as u16),
                payload: payload.clone(),
                data,
                gather,
            });
            return;
        }
        let sys = self.topo.system();
        let label = self.topo.label(prefix, self.topo.suffix(src_addr, j), j);
        let mut copy = 0u64;
        for p in 0..4u8 {
            let (mask, value) = self.topo.dest_constraint(prefix, j, p);
            if !spec.intersects_masked_existing(mask, value, sys) {
                continue;
            }
            // Successive copies leave the replicating switch serially.
            let avail = t + self.params.copy_serialization * copy;
            copy += 1;
            let t_next = self.cross(j, label, p, avail, data);
            self.descend(
                j + 1,
                (prefix << 2) | p as u32,
                src_addr,
                t_next,
                spec,
                data,
                payload,
                gather,
                out,
            );
        }
    }

    // ----- gather replies --------------------------------------------------

    /// A slave's reply to a gathered multicast. Returns `Some(delivery)`
    /// carrying the combined payload when this reply completes the gather,
    /// `None` when it is absorbed by a switch (or, in emulation mode,
    /// counted at the home while earlier replies are still outstanding).
    ///
    /// The fault plan applies on the slave's first link (class
    /// [`WireClass::GatherReply`]): a dropped reply never enters the
    /// gather tree — the gather stays open, waiting — and a delayed reply
    /// enters late. Duplication is recorded but has no effect: each
    /// switch's wait pattern accepts one reply per input port, so the
    /// combining tree absorbs NIC-level duplicates by construction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not open, if `slave` is not one of the gather's
    /// expected repliers, or if the slave replies twice.
    pub fn send_gather_reply(
        &mut self,
        now: SimTime,
        slave: NodeId,
        id: GatherId,
        payload: P,
    ) -> Option<Delivery<P>> {
        self.stats.gather_replies.incr();
        let mut now = now;
        let dest = self.gathers.get(&id).expect("gather not open").home;
        if slave != dest {
            match self.fault.decide(now, slave, dest, WireClass::GatherReply) {
                None => {}
                Some(FaultKind::Drop) => {
                    self.record_fault(now, slave, dest, WireClass::GatherReply, FaultKind::Drop);
                    return None;
                }
                Some(k @ FaultKind::Duplicate { .. }) => {
                    self.record_fault(now, slave, dest, WireClass::GatherReply, k);
                }
                Some(k @ FaultKind::Delay { by_ns }) => {
                    self.record_fault(now, slave, dest, WireClass::GatherReply, k);
                    now += Duration::from_ns(by_ns);
                }
            }
        }
        let sys = self.topo.system();
        let (home, mode) = {
            let st = self.gathers.get_mut(&id).expect("gather not open");
            assert!(
                st.spec.contains(slave) && sys.contains(slave),
                "{slave} is not a replier of gather {id}"
            );
            st.received += 1;
            assert!(st.received <= st.expected, "duplicate gather reply");
            (st.home, self.params.multicast)
        };
        match mode {
            MulticastMode::SinglecastEmulation => {
                self.gather_reply_emulated(now, slave, id, home, payload)
            }
            MulticastMode::Hardware => self.gather_reply_hardware(now, slave, id, home, payload),
        }
    }

    /// Emulation: the reply is an ordinary unicast; the home NIC counts.
    fn gather_reply_emulated(
        &mut self,
        now: SimTime,
        slave: NodeId,
        id: GatherId,
        home: NodeId,
        payload: P,
    ) -> Option<Delivery<P>> {
        let delivery = if slave == home {
            // Node-internal reply: no NIC serialization.
            let at = now + self.params.inject_latency + self.params.eject_latency;
            Delivery {
                at,
                node: home,
                src: slave,
                payload,
                data: false,
                gather: Some(id),
            }
        } else {
            let mut d = self.unicast_delivery(now, slave, home, false, payload);
            d.gather = Some(id);
            d
        };
        let st = self.gathers.get_mut(&id).expect("gather not open");
        match &mut st.merged {
            Some(m) => m.combine(delivery.payload.clone()),
            None => st.merged = Some(delivery.payload.clone()),
        }
        if st.received == st.expected {
            let merged = st.merged.take().expect("merged payload present");
            self.gathers.remove(&id);
            self.stats.gather_concurrency.sub(1);
            self.stats.gather_delivered.incr();
            Some(Delivery {
                payload: merged,
                ..delivery
            })
        } else {
            self.stats.gather_absorbed.incr();
            None
        }
    }

    /// Hardware gathering: walk toward the home, folding into per-switch
    /// wait patterns; only the reply that completes a switch's pattern
    /// proceeds to the next stage.
    fn gather_reply_hardware(
        &mut self,
        now: SimTime,
        slave: NodeId,
        id: GatherId,
        home: NodeId,
        payload: P,
    ) -> Option<Delivery<P>> {
        let stages = self.topo.stages();
        let sys = self.topo.system();
        let (s, h) = (slave.index() as u32, home.index() as u32);
        let mut t = self.inject(now, slave);
        let mut carried = payload;
        for j in 0..stages {
            let suffix = self.topo.suffix(s, j);
            let label = self.topo.label(self.topo.prefix(h, j), suffix, j);
            let in_port = self.topo.input_port(s, j);

            // First reply to touch this switch installs the wait pattern,
            // computed from the multicast spec, the switch position, and
            // the system size — exactly the inputs the paper lists.
            let spec = self.gathers[&id].spec;
            let topo = self.topo;
            let entry = self
                .switch_gathers
                .entry((id, j, label))
                .or_insert_with(|| {
                    let mut waiting = 0u8;
                    for p in 0..4u8 {
                        let (mask, value) = topo.source_constraint(suffix, j, p);
                        if spec.intersects_masked_existing(mask, value, sys) {
                            waiting |= 1 << p;
                        }
                    }
                    SwitchGather {
                        waiting,
                        merged: None,
                        latest: SimTime::ZERO,
                    }
                });
            debug_assert!(
                entry.waiting & (1 << in_port) != 0,
                "duplicate arrival on port {in_port} of stage {j} switch {label}"
            );
            entry.waiting &= !(1 << in_port);
            match &mut entry.merged {
                Some(m) => m.combine(carried.clone()),
                None => entry.merged = Some(carried.clone()),
            }
            entry.latest = entry.latest.max(t + self.params.gather_merge);
            if entry.waiting != 0 {
                // Absorbed: removed from the buffer, not forwarded.
                self.stats.gather_absorbed.incr();
                return None;
            }
            // Last awaited reply: the combined message proceeds.
            t = entry.latest;
            carried = entry.merged.take().expect("merged payload present");
            self.switch_gathers.remove(&(id, j, label));
            let p_out = self.topo.output_port(h, j);
            t = self.cross(j, label, p_out, t, false);
        }
        // Every stage completed: deliver the single combined message.
        let st = self.gathers.remove(&id).expect("gather not open");
        debug_assert!(
            !self.switch_gathers.keys().any(|k| k.0 == id),
            "stale gather-table entries"
        );
        debug_assert_eq!(st.received, st.expected, "gather completed early");
        self.stats.gather_concurrency.sub(1);
        self.stats.gather_delivered.incr();
        let at = self.eject(t, home);
        self.stats.delivered.incr();
        Some(Delivery {
            at,
            node: home,
            src: slave,
            payload: carried,
            data: false,
            gather: Some(id),
        })
    }

    /// Abandons an open gather (used by protocol recovery paths and
    /// tests), discarding any per-switch combining state. Returns how many
    /// expected replies were still outstanding — the callers' leak check.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not open.
    pub fn cancel_gather(&mut self, id: GatherId) -> u32 {
        let st = self.gathers.remove(&id).expect("gather not open");
        self.switch_gathers.retain(|k, _| k.0 != id);
        self.stats.gather_concurrency.sub(1);
        st.expected - st.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenju4_directory::{BitPattern, Cenju4NodeMap, NodeMap, PointerSet};

    fn sys(n: u16) -> SystemSize {
        SystemSize::new(n).unwrap()
    }

    fn fabric(n: u16) -> Fabric<u32> {
        Fabric::new(sys(n), NetParams::default())
    }

    fn spec_of(nodes: &[u16]) -> DestSpec {
        if nodes.len() <= 4 {
            let mut p = PointerSet::new();
            for &n in nodes {
                p.insert(NodeId::new(n));
            }
            DestSpec::Pointers(p)
        } else {
            let p: BitPattern = nodes.iter().map(|&n| NodeId::new(n)).collect();
            DestSpec::Pattern(p)
        }
    }

    /// A unicast on a lossless fabric: exactly one delivery.
    fn uni(
        f: &mut Fabric<u32>,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        data: bool,
        payload: u32,
    ) -> Delivery<u32> {
        let dels = f.send_unicast(now, src, dst, data, payload, WireClass::Other);
        assert_eq!(dels.len(), 1, "lossless unicast must deliver once");
        dels.into_iter().next().unwrap()
    }

    #[test]
    fn unicast_uncontended_latency() {
        for (n, stages) in [(16u16, 2u64), (128, 4), (1024, 6)] {
            let mut f = fabric(n);
            let d = uni(
                &mut f,
                SimTime::ZERO,
                NodeId::new(0),
                NodeId::new(n - 1),
                false,
                1,
            );
            assert_eq!(d.at.as_ns(), 280 + 130 * stages, "{n} nodes");
        }
    }

    #[test]
    fn data_messages_slower() {
        let mut f = fabric(128);
        let a = uni(
            &mut f,
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(5),
            false,
            1,
        );
        let mut f = fabric(128);
        let b = uni(
            &mut f,
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(5),
            true,
            1,
        );
        assert!(b.at > a.at);
        assert_eq!(b.at.as_ns(), 280 + 140 * 4);
    }

    #[test]
    fn injection_serializes_back_to_back_sends() {
        let mut f = fabric(16);
        let a = uni(
            &mut f,
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            false,
            1,
        );
        let b = uni(
            &mut f,
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(2),
            false,
            1,
        );
        // Second message waits out the injection occupancy (175ns).
        assert_eq!(b.at.as_ns() - a.at.as_ns(), 175);
    }

    #[test]
    fn in_order_delivery_same_pair() {
        let mut f = fabric(1024);
        let mut last = SimTime::ZERO;
        for i in 0..20 {
            let d = uni(
                &mut f,
                SimTime::from_ns(i * 10),
                NodeId::new(7),
                NodeId::new(700),
                i % 2 == 0,
                i as u32,
            );
            assert!(d.at > last, "message {i} out of order");
            last = d.at;
        }
    }

    #[test]
    fn unicast_to_self_panics() {
        let mut f = fabric(16);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.send_unicast(
                SimTime::ZERO,
                NodeId::new(3),
                NodeId::new(3),
                false,
                0,
                WireClass::Other,
            )
        }));
        assert!(result.is_err());
    }

    #[test]
    fn multicast_reaches_exactly_the_spec() {
        let mut f = fabric(128);
        let spec = spec_of(&[1, 2, 3]);
        let dels = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(0),
            spec,
            false,
            9,
            None,
            WireClass::Other,
        );
        let mut nodes: Vec<u16> = dels.iter().map(|d| d.node.index()).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![1, 2, 3]);
        assert!(dels.iter().all(|d| d.payload == 9));
    }

    #[test]
    fn multicast_pattern_overcount_is_clipped_to_machine() {
        // 256-node machine: bit pattern for {0,255,1,2,3} represents more
        // than 5 nodes, but never any node >= 256.
        let s = sys(256);
        let mut m = Cenju4NodeMap::new(s);
        for n in [0u16, 255, 1, 2, 3] {
            m.add(NodeId::new(n));
        }
        let spec = m.to_dest_spec();
        let expected = spec.destinations(s);
        let mut f: Fabric<u32> = Fabric::new(s, NetParams::default());
        let dels = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(0),
            spec,
            false,
            0,
            None,
            WireClass::Other,
        );
        let mut got: Vec<u16> = dels.iter().map(|d| d.node.index()).collect();
        got.sort_unstable();
        assert_eq!(got, expected.iter().map(|n| n.index()).collect::<Vec<_>>());
        assert!(got.iter().all(|&n| n < 256));
    }

    #[test]
    fn full_machine_multicast_latency_is_log_not_linear() {
        let mut f = fabric(1024);
        let all: BitPattern = (0..1024).map(NodeId::new).collect();
        let dels = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(0),
            DestSpec::Pattern(all),
            false,
            0,
            None,
            WireClass::Other,
        );
        assert_eq!(dels.len(), 1024);
        let worst = dels.iter().map(|d| d.at).max().unwrap();
        // Base one-way is 1060ns at 6 stages; replication serialization
        // adds ~3 copies × 100ns at each of 5 replicating stages ≈ 1.5µs.
        // Far below the ~179µs a singlecast storm costs.
        assert!(worst.as_ns() < 10_000, "multicast took {worst}");
    }

    #[test]
    fn singlecast_emulation_is_linear() {
        let mut f: Fabric<u32> = Fabric::new(sys(1024), NetParams::without_multicast());
        let all: BitPattern = (0..1024).map(NodeId::new).collect();
        let dels = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(0),
            DestSpec::Pattern(all),
            false,
            0,
            None,
            WireClass::Other,
        );
        assert_eq!(dels.len(), 1024);
        let worst = dels.iter().map(|d| d.at).max().unwrap();
        // 1023 × 175ns injection serialization ≈ 179µs.
        assert!(worst.as_ns() > 150_000, "emulation too fast: {worst}");
    }

    #[test]
    fn gather_combines_all_replies_into_one_delivery() {
        let mut f = fabric(128);
        let members = [1u16, 2, 3, 64, 65, 66, 127];
        let spec = spec_of(&members);
        let home = NodeId::new(0);
        let expected: Vec<u16> = spec
            .destinations(sys(128))
            .iter()
            .map(|n| n.index())
            .collect();
        let id = f.open_gather(home, spec);
        assert_eq!(f.gather_expected(id) as usize, expected.len());
        let dels = f.send_multicast(
            SimTime::ZERO,
            home,
            spec,
            false,
            0,
            Some(id),
            WireClass::Other,
        );
        assert_eq!(dels.len(), expected.len());

        let mut combined = None;
        let mut count = 0;
        for d in &dels {
            // Each recipient replies 1; the combined payload must sum to
            // the replier count.
            let r = f.send_gather_reply(d.at, d.node, id, 1);
            if let Some(del) = r {
                assert!(combined.is_none(), "more than one combined delivery");
                combined = Some(del);
            }
            count += 1;
        }
        let combined = combined.expect("gather must complete");
        assert_eq!(count, expected.len());
        assert_eq!(combined.node, home);
        assert_eq!(combined.payload as usize, expected.len());
        assert_eq!(f.open_gathers(), 0);
        assert_eq!(f.stats().gather_delivered.get(), 1);
        assert_eq!(f.stats().gather_absorbed.get() as usize, expected.len() - 1);
    }

    /// Over random gathers in both modes, each replied to in a random
    /// order and in part, the multiset fold partitions fabric states
    /// exactly as the sort-based fold does. Payloads are mostly 0, so
    /// the reply counts, not the merged sums, tell progress apart.
    #[test]
    fn gather_folds_partition_like_the_sorted_fold() {
        use cenju4_des::SplitMix64;
        let digest = |f: &Fabric<u32>, sorted: bool| {
            let mut h = FxHasher::default();
            if sorted {
                f.fold_gathers_sorted(&mut h, |p, h| p.hash(h));
            } else {
                f.fold_gathers(&mut h, |p, h| p.hash(h));
            }
            h.finish()
        };
        let mut by_fold: FxHashMap<u64, u64> = FxHashMap::default();
        let mut by_sorted: FxHashMap<u64, u64> = FxHashMap::default();
        let mut visits = 0;
        for seed in 0..200u64 {
            let mut rng = SplitMix64::new(seed);
            let params = if seed % 2 == 0 {
                NetParams::default()
            } else {
                NetParams::without_multicast()
            };
            let mut f: Fabric<u32> = Fabric::new(sys(16), params);
            let mut replies = Vec::new();
            for g in 0..1 + rng.next_below(3) {
                let home = NodeId::new(g as u16);
                let members: Vec<u16> = (4..16).filter(|_| rng.next_below(3) == 0).collect();
                if members.is_empty() {
                    continue;
                }
                let spec = spec_of(&members);
                let id = f.open_gather(home, spec);
                let dels = f.send_multicast(
                    SimTime::ZERO,
                    home,
                    spec,
                    false,
                    0,
                    Some(id),
                    WireClass::Other,
                );
                replies.extend(dels.iter().map(|d| (d.at, d.node, id)));
            }
            // Replies in a random order; each state on the way is visited.
            for i in (1..replies.len()).rev() {
                replies.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let stop = rng.next_below(replies.len() as u64 + 1) as usize;
            for &(at, node, id) in &replies[..stop] {
                let payload = u32::from(rng.next_below(4) == 0);
                let _ = f.send_gather_reply(at, node, id, payload);
                let (fold, sorted) = (digest(&f, false), digest(&f, true));
                assert_eq!(
                    *by_fold.entry(fold).or_insert(sorted),
                    sorted,
                    "seed {seed}"
                );
                assert_eq!(
                    *by_sorted.entry(sorted).or_insert(fold),
                    fold,
                    "seed {seed}"
                );
                visits += 1;
            }
        }
        assert!(
            visits > by_sorted.len() && by_sorted.len() > 500,
            "{visits} visits, {} states",
            by_sorted.len()
        );
    }

    #[test]
    fn gather_single_replier() {
        let mut f = fabric(16);
        let spec = DestSpec::single(NodeId::new(5));
        let id = f.open_gather(NodeId::new(0), spec);
        let dels = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(0),
            spec,
            false,
            0,
            Some(id),
            WireClass::Other,
        );
        assert_eq!(dels.len(), 1);
        let r = f.send_gather_reply(dels[0].at, NodeId::new(5), id, 1);
        assert_eq!(r.expect("must complete").payload, 1);
    }

    #[test]
    fn gather_emulation_counts_at_home() {
        let mut f: Fabric<u32> = Fabric::new(sys(128), NetParams::without_multicast());
        let spec = spec_of(&[1, 2, 3]);
        let id = f.open_gather(NodeId::new(9), spec);
        let dels = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(9),
            spec,
            false,
            0,
            Some(id),
            WireClass::Other,
        );
        let mut done = None;
        for d in &dels {
            if let Some(x) = f.send_gather_reply(d.at, d.node, id, 1) {
                done = Some(x);
            }
        }
        assert_eq!(done.expect("complete").payload, 3);
        assert_eq!(f.open_gathers(), 0);
    }

    #[test]
    fn gather_delivery_not_before_slowest_reply() {
        let mut f = fabric(1024);
        let members = [10u16, 500, 900];
        let spec = spec_of(&members);
        let id = f.open_gather(NodeId::new(0), spec);
        let _ = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(0),
            spec,
            false,
            0,
            Some(id),
            WireClass::Other,
        );
        let reply_times = [1_000u64, 50_000, 2_000];
        let mut done = None;
        for (&m, &t) in members.iter().zip(&reply_times) {
            if let Some(x) = f.send_gather_reply(SimTime::from_ns(t), NodeId::new(m), id, 1) {
                done = Some(x);
            }
        }
        let done = done.unwrap();
        assert!(done.at >= SimTime::from_ns(50_000));
        assert_eq!(done.payload, 3);
    }

    #[test]
    fn gather_concurrency_tracked() {
        let mut f = fabric(128);
        let ids: Vec<_> = (0..5)
            .map(|i| f.open_gather(NodeId::new(i), DestSpec::single(NodeId::new(100))))
            .collect();
        assert_eq!(f.stats().gather_concurrency.peak(), 5);
        for id in ids {
            f.cancel_gather(id);
        }
        assert_eq!(f.open_gathers(), 0);
        assert_eq!(f.stats().gather_concurrency.current(), 0);
    }

    #[test]
    #[should_panic]
    fn gather_reply_from_non_member_panics() {
        let mut f = fabric(16);
        let id = f.open_gather(NodeId::new(0), DestSpec::single(NodeId::new(5)));
        let _ = f.send_gather_reply(SimTime::ZERO, NodeId::new(6), id, 1);
    }

    #[test]
    #[should_panic]
    fn empty_gather_panics() {
        let mut f = fabric(16);
        let _ = f.open_gather(NodeId::new(0), DestSpec::Pointers(PointerSet::new()));
    }

    #[test]
    fn multicast_including_source_delivers_to_source() {
        // Bit patterns cannot exclude the requesting master; the fabric
        // must deliver its copy like any other.
        let mut f = fabric(128);
        let members = [0u16, 1, 2, 3, 4, 5];
        let spec = spec_of(&members);
        let dels = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(0),
            spec,
            false,
            0,
            None,
            WireClass::Other,
        );
        assert!(dels.iter().any(|d| d.node == NodeId::new(0)));
    }

    #[test]
    fn bulk_transfer_is_bandwidth_limited() {
        let mut f = fabric(128);
        let small = uni(
            &mut f,
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(5),
            true,
            0,
        );
        let mut f = fabric(128);
        let big = f.send_bulk(SimTime::ZERO, NodeId::new(0), NodeId::new(5), 1 << 20, 0);
        // 1 MB at 169 B/us ~ 6.2 ms, far beyond a single-line message.
        assert!(big.at.as_ns() > 6_000_000);
        assert!(small.at.as_ns() < 2_000);
    }

    #[test]
    fn bulk_transfer_occupies_the_sender_nic() {
        let mut f = fabric(128);
        let _ = f.send_bulk(SimTime::ZERO, NodeId::new(0), NodeId::new(5), 64 * 1024, 0);
        // A header message right behind it waits out the serialization.
        let d = uni(
            &mut f,
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(9),
            false,
            1,
        );
        assert!(
            d.at.as_ns() > 300_000,
            "64KB at 169B/us ~ 388us must block the NIC: {}",
            d.at
        );
    }

    #[test]
    fn bulk_transfers_serialize_at_the_receiver() {
        let mut f = fabric(128);
        let a = f.send_bulk(SimTime::ZERO, NodeId::new(1), NodeId::new(0), 32 * 1024, 0);
        let b = f.send_bulk(SimTime::ZERO, NodeId::new(2), NodeId::new(0), 32 * 1024, 1);
        let gap = b.at.as_ns().saturating_sub(a.at.as_ns());
        // The second transfer waits for the first to drain (~194us each).
        assert!(gap > 150_000, "receiver DMA must serialize: gap {gap}");
    }

    #[test]
    fn stats_count_messages() {
        let mut f = fabric(16);
        let _ = uni(
            &mut f,
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            false,
            0,
        );
        let _ = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(0),
            spec_of(&[2, 3]),
            false,
            0,
            None,
            WireClass::Other,
        );
        assert_eq!(f.stats().unicasts.get(), 1);
        assert_eq!(f.stats().multicasts.get(), 1);
        assert_eq!(f.stats().multicast_copies.get(), 2);
        assert_eq!(f.stats().delivered.get(), 3);
    }

    // ----- fault injection ------------------------------------------------

    use crate::faults::{FaultKind, FaultPlan, LinkDown, OneShotFault};

    fn shot(class: Option<WireClass>, nth: u64, kind: FaultKind) -> OneShotFault {
        OneShotFault {
            link: None,
            class,
            nth,
            kind,
        }
    }

    #[test]
    fn dropped_unicast_returns_no_delivery() {
        let mut f = fabric(16);
        f.set_fault_plan(FaultPlan::none().with_one_shot(shot(None, 1, FaultKind::Drop)));
        let dels = f.send_unicast(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            false,
            7,
            WireClass::Reply,
        );
        assert!(dels.is_empty());
        assert_eq!(f.stats().faults_dropped.get(), 1);
        assert_eq!(f.stats().delivered.get(), 0);
        let events = f.take_fault_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, FaultKind::Drop);
        assert_eq!(events[0].class, WireClass::Reply);
        // The one-shot is spent: the next message gets through.
        let d = uni(
            &mut f,
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            false,
            8,
        );
        assert_eq!(d.payload, 8);
        assert!(f.take_fault_events().is_empty());
    }

    #[test]
    fn duplicated_unicast_delivers_twice() {
        let mut f = fabric(16);
        f.set_fault_plan(FaultPlan::none().with_one_shot(shot(
            None,
            1,
            FaultKind::Duplicate { after_ns: 500 },
        )));
        let dels = f.send_unicast(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            false,
            7,
            WireClass::Reply,
        );
        assert_eq!(dels.len(), 2);
        assert!(dels[1].at > dels[0].at, "duplicate must trail the original");
        assert!(dels.iter().all(|d| d.payload == 7));
        assert_eq!(f.stats().faults_duplicated.get(), 1);
    }

    #[test]
    fn delayed_unicast_arrives_late() {
        let mut lossless = fabric(16);
        let base = uni(
            &mut lossless,
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            false,
            0,
        );
        let mut f = fabric(16);
        f.set_fault_plan(FaultPlan::none().with_one_shot(shot(
            None,
            1,
            FaultKind::Delay { by_ns: 2_000 },
        )));
        let dels = f.send_unicast(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            false,
            0,
            WireClass::Request,
        );
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].at.as_ns(), base.at.as_ns() + 2_000);
        assert_eq!(f.stats().faults_delayed.get(), 1);
    }

    #[test]
    fn link_down_window_kills_matching_unicasts() {
        let mut f = fabric(16);
        f.set_fault_plan(FaultPlan::none().with_link_down(LinkDown {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            from_ns: 0,
            until_ns: 1_000,
        }));
        let inside = f.send_unicast(
            SimTime::from_ns(500),
            NodeId::new(0),
            NodeId::new(1),
            false,
            0,
            WireClass::Other,
        );
        assert!(inside.is_empty());
        let after = f.send_unicast(
            SimTime::from_ns(1_000),
            NodeId::new(0),
            NodeId::new(1),
            false,
            0,
            WireClass::Other,
        );
        assert_eq!(after.len(), 1);
    }

    #[test]
    fn multicast_copy_faults_hit_one_copy_only() {
        let mut f = fabric(128);
        // Drop the first invalidation-class message on link (0, 2) only.
        f.set_fault_plan(FaultPlan::none().with_one_shot(OneShotFault {
            link: Some((NodeId::new(0), NodeId::new(2))),
            class: Some(WireClass::Invalidation),
            nth: 1,
            kind: FaultKind::Drop,
        }));
        let spec = spec_of(&[1, 2, 3]);
        let id = f.open_gather(NodeId::new(0), spec);
        let dels = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(0),
            spec,
            false,
            0,
            Some(id),
            WireClass::Invalidation,
        );
        let mut nodes: Vec<u16> = dels.iter().map(|d| d.node.index()).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![1, 3], "copy to node 2 must vanish");
        assert!(dels.iter().all(|d| d.gather == Some(id)));
        assert_eq!(f.stats().faults_dropped.get(), 1);
        assert_eq!(f.cancel_gather(id), 3);
    }

    /// No cross-node delivery ever beats the uncontended one-way header
    /// latency `inject + stages·hop + eject`, *even with an armed fault
    /// plan* combining dead-link windows, probabilistic delays,
    /// duplicates, drops, and targeted one-shot delays: unicasts and
    /// bulk transfers pay at least the full route, hardware-multicast
    /// copies descend the whole tree, gather replies either travel a
    /// full route or are absorbed at a switch, and faults only add
    /// delay or remove deliveries.
    #[test]
    fn deliveries_never_beat_one_way_latency_under_faults() {
        use cenju4_des::SplitMix64;

        for n in [16u16, 128] {
            let mut f = fabric(n);
            let look = f.params().one_way(f.topology().stages(), false);

            // Arm everything at once: dead links, heavy probabilistic
            // delay/dup/drop, and targeted one-shot delays.
            let mut plan = FaultPlan {
                seed: 0xD15C0,
                drop_permille: 100,
                dup_permille: 200,
                delay_permille: 300,
                max_delay_ns: 7_500,
                ..FaultPlan::default()
            }
            .with_link_down(LinkDown {
                src: NodeId::new(0),
                dst: NodeId::new(1),
                from_ns: 0,
                until_ns: 50_000,
            })
            .with_link_down(LinkDown {
                src: NodeId::new(2),
                dst: NodeId::new(3),
                from_ns: 10_000,
                until_ns: 90_000,
            });
            for nth in [3u64, 9, 27] {
                plan = plan.with_one_shot(shot(None, nth, FaultKind::Delay { by_ns: 4_321 }));
            }
            f.set_fault_plan(plan);

            let mut rng = SplitMix64::new(0xB0);
            let mut checked = 0u32;
            let mut check = |now: SimTime, d: &Delivery<u32>| {
                if d.node != d.src {
                    assert!(
                        d.at >= now + look,
                        "delivery {:?}->{:?} at {} beats {} + one-way {look:?}",
                        d.src,
                        d.node,
                        d.at,
                        now
                    );
                    checked += 1;
                }
            };

            for i in 0..400u64 {
                let now = SimTime::from_ns(i * 111);
                let src = NodeId::new(rng.next_below(n as u64) as u16);
                let dst = NodeId::new(rng.next_below(n as u64) as u16);
                match i % 4 {
                    0 | 1 if src != dst => {
                        let dels = f.send_unicast(now, src, dst, i % 2 == 1, 0, WireClass::Request);
                        dels.iter().for_each(|d| check(now, d));
                    }
                    2 if src != dst => {
                        let d = f.send_bulk(now, src, dst, 256, 0);
                        check(now, &d);
                    }
                    _ => {
                        let spec = spec_of(&[1, 2, 3, n - 1]);
                        let id = f.open_gather(src, spec);
                        let dels = f.send_multicast(
                            now,
                            src,
                            spec,
                            false,
                            0,
                            Some(id),
                            WireClass::Invalidation,
                        );
                        dels.iter().for_each(|d| check(now, d));
                        // Replies re-enter the fabric at their arrival
                        // times; any combined delivery must also respect
                        // the one-way bound from the *last* contributing reply.
                        let mut reply_at = SimTime::ZERO;
                        let mut combined = Vec::new();
                        let mut replied: Vec<NodeId> = Vec::new();
                        for d in &dels {
                            // Faulty duplicates carry the gather id too;
                            // each expected replier answers only once.
                            if f.is_gather_open(id)
                                && d.gather == Some(id)
                                && !replied.contains(&d.node)
                            {
                                replied.push(d.node);
                                if let Some(c) = f.send_gather_reply(d.at, d.node, id, 0) {
                                    reply_at = d.at;
                                    combined.push(c);
                                }
                            }
                        }
                        combined.iter().for_each(|c| check(reply_at, c));
                        if f.is_gather_open(id) {
                            f.cancel_gather(id);
                        }
                    }
                }
            }
            assert!(checked > 300, "only {checked} deliveries exercised");
            assert!(
                f.stats().faults_delayed.get() > 0 && f.stats().faults_dropped.get() > 0,
                "fault plan never fired — the test lost its teeth"
            );
        }
    }

    /// A spurious network copy carries the original's payload. Covers
    /// both the unicast dup branch and the multicast per-copy dup branch.
    #[test]
    fn duplicated_copies_carry_equal_payloads() {
        // Unicast branch.
        let mut f: Fabric<u32> = Fabric::new(sys(16), NetParams::default());
        f.set_fault_plan(FaultPlan::none().with_one_shot(OneShotFault {
            link: Some((NodeId::new(0), NodeId::new(1))),
            class: None,
            nth: 1,
            kind: FaultKind::Duplicate { after_ns: 700 },
        }));
        let dels = f.send_unicast(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            false,
            0xC0FFEE,
            WireClass::Reply,
        );
        assert_eq!(dels.len(), 2);
        assert_eq!(dels[0].payload, 0xC0FFEE);
        assert_eq!(dels[1].payload, 0xC0FFEE, "spurious unicast copy");
        assert!(dels[1].at > dels[0].at);

        // Multicast branch: every fan-out copy plus the dup carry the
        // payload the caller handed in.
        let mut f: Fabric<u32> = Fabric::new(sys(16), NetParams::default());
        f.set_fault_plan(FaultPlan::none().with_one_shot(OneShotFault {
            link: Some((NodeId::new(0), NodeId::new(3))),
            class: None,
            nth: 1,
            kind: FaultKind::Duplicate { after_ns: 5_000 },
        }));
        let dels = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(0),
            spec_of(&[1, 2, 3]),
            false,
            7,
            None,
            WireClass::Invalidation,
        );
        assert_eq!(dels.len(), 4, "3 copies + 1 spurious duplicate");
        for d in &dels {
            assert_eq!(d.payload, 7, "fan-out copy to {:?}", d.node);
        }
        assert_eq!(
            dels.iter().filter(|d| d.node == NodeId::new(3)).count(),
            2,
            "the duplicate goes to the faulted link's destination"
        );
    }

    #[test]
    fn multicast_duplicate_keeps_gather_id() {
        let mut f = fabric(128);
        f.set_fault_plan(FaultPlan::none().with_one_shot(OneShotFault {
            link: Some((NodeId::new(0), NodeId::new(3))),
            class: None,
            nth: 1,
            kind: FaultKind::Duplicate { after_ns: 5_000 },
        }));
        let spec = spec_of(&[1, 3]);
        let id = f.open_gather(NodeId::new(0), spec);
        let dels = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(0),
            spec,
            false,
            0,
            Some(id),
            WireClass::Invalidation,
        );
        let to3: Vec<_> = dels.iter().filter(|d| d.node == NodeId::new(3)).collect();
        assert_eq!(to3.len(), 2, "node 3 must receive the spurious copy");
        assert!(to3.iter().all(|d| d.gather == Some(id)));
        let _ = f.cancel_gather(id);
    }

    #[test]
    fn dropped_gather_reply_leaves_gather_waiting() {
        let mut f = fabric(128);
        let spec = spec_of(&[1, 2]);
        let id = f.open_gather(NodeId::new(0), spec);
        let _ = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(0),
            spec,
            false,
            0,
            Some(id),
            WireClass::Invalidation,
        );
        f.set_fault_plan(FaultPlan::none().with_one_shot(shot(
            Some(WireClass::GatherReply),
            1,
            FaultKind::Drop,
        )));
        let r = f.send_gather_reply(SimTime::from_ns(2_000), NodeId::new(1), id, 1);
        assert!(r.is_none());
        assert!(
            f.is_gather_open(id),
            "dropped reply must not close the gather"
        );
        assert_eq!(f.stats().faults_dropped.get(), 1);
        // Both replies are still outstanding: the drop never reached the
        // combining tree.
        assert_eq!(f.cancel_gather(id), 2);
    }

    #[test]
    fn cancel_gather_counts_outstanding_replies() {
        let mut f = fabric(128);
        let spec = spec_of(&[1, 2, 3]);
        let id = f.open_gather(NodeId::new(0), spec);
        let _ = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(0),
            spec,
            false,
            0,
            Some(id),
            WireClass::Invalidation,
        );
        let _ = f.send_gather_reply(SimTime::from_ns(2_000), NodeId::new(1), id, 1);
        assert_eq!(f.cancel_gather(id), 2);
        assert_eq!(f.open_gathers(), 0);
    }

    #[test]
    fn fault_plan_replays_identically() {
        let run = || {
            let mut f = fabric(16);
            f.set_fault_plan(FaultPlan::random(99, 250));
            let mut dels = Vec::new();
            for i in 0..50u64 {
                dels.extend(f.send_unicast(
                    SimTime::from_ns(i * 1_000),
                    NodeId::new((i % 3) as u16),
                    NodeId::new(5),
                    false,
                    i as u32,
                    WireClass::Request,
                ));
            }
            (dels, f.stats().faults_dropped.get())
        };
        let (a, da) = run();
        let (b, db) = run();
        assert_eq!(a, b);
        assert_eq!(da, db);
        assert!(da > 0, "250 permille over 50 messages never dropped");
    }
}
