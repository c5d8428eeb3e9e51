//! The closed-loop processor driver.
//!
//! Each node executes a [`Program`]: a per-node stream of memory accesses,
//! think time (non-memory instructions) and barrier synchronizations. The
//! driver runs all programs against one coherence engine and produces a
//! [`RunReport`] with the paper's Table-3/Table-4 statistics.

use crate::report::{AccessClass, NodeReport, RunReport};
use cenju4_des::{Duration, SimTime};
use cenju4_directory::NodeId;
use cenju4_protocol::{Addr, Engine, MemOp, Notification, SystemConfig};

/// What a memory access targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// A DSM block.
    Shared(Addr),
    /// Private memory, hitting in the secondary cache.
    PrivateHit,
    /// Private memory, missing the secondary cache (470 ns, Table 2a).
    PrivateMiss,
}

/// One step of a node's program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Execute `reuse` consecutive accesses to one target. Only the first
    /// can miss; the remaining `reuse - 1` hit in the cache (the line was
    /// just fetched), so the driver accounts for them at hit cost without
    /// a protocol round trip each. This models word-granular programs
    /// touching a 128-byte block many times per visit.
    Access {
        /// Load or store.
        op: MemOp,
        /// Where it goes.
        target: Target,
        /// Total accesses to the block (≥ 1).
        reuse: u32,
    },
    /// Execute non-memory instructions for the given time.
    Think(Duration),
    /// Synchronize with every other node (MPI-style tree barrier).
    Barrier,
}

impl Step {
    /// A single load of a shared block.
    pub fn load(addr: Addr) -> Step {
        Step::load_reuse(addr, 1)
    }

    /// A single store to a shared block.
    pub fn store(addr: Addr) -> Step {
        Step::store_reuse(addr, 1)
    }

    /// `reuse` consecutive loads of one shared block.
    pub fn load_reuse(addr: Addr, reuse: u32) -> Step {
        Step::Access {
            op: MemOp::Load,
            target: Target::Shared(addr),
            reuse: reuse.max(1),
        }
    }

    /// `reuse` consecutive stores to one shared block.
    pub fn store_reuse(addr: Addr, reuse: u32) -> Step {
        Step::Access {
            op: MemOp::Store,
            target: Target::Shared(addr),
            reuse: reuse.max(1),
        }
    }

    /// `reuse` private accesses, the first missing the cache.
    pub fn private_miss(reuse: u32) -> Step {
        Step::Access {
            op: MemOp::Load,
            target: Target::PrivateMiss,
            reuse: reuse.max(1),
        }
    }

    /// `reuse` private accesses, all hitting.
    pub fn private_hit(reuse: u32) -> Step {
        Step::Access {
            op: MemOp::Load,
            target: Target::PrivateHit,
            reuse: reuse.max(1),
        }
    }

    /// Think time in nanoseconds.
    pub fn think(ns: u64) -> Step {
        Step::Think(Duration::from_ns(ns))
    }
}

/// A per-node instruction stream.
///
/// `next_step(node)` is called whenever `node` is ready for its next step;
/// returning `None` ends that node's program.
pub trait Program {
    /// The next step for `node`, or `None` when the node is done.
    fn next_step(&mut self, node: NodeId) -> Option<Step>;
}

impl<F: FnMut(NodeId) -> Option<Step>> Program for F {
    fn next_step(&mut self, node: NodeId) -> Option<Step> {
        self(node)
    }
}

impl Program for Box<dyn Program + Send> {
    fn next_step(&mut self, node: NodeId) -> Option<Step> {
        (**self).next_step(node)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeRun {
    Ready,
    Waiting,
    AtBarrier(SimTime),
    Finished,
}

/// Drives a [`Program`] on every node of a machine to completion.
///
/// # Examples
///
/// ```
/// use cenju4_des::Duration;
/// use cenju4_directory::NodeId;
/// use cenju4_protocol::{Addr, MemOp};
/// use cenju4_sim::{Driver, Program, Step, SystemConfig, Target};
///
/// let cfg = SystemConfig::builder(4).build()?;
/// let mut remaining = vec![3u32; 4];
/// let program = move |node: NodeId| {
///     let r = &mut remaining[node.as_usize()];
///     if *r == 0 {
///         return None;
///     }
///     *r -= 1;
///     Some(Step::load(Addr::new(NodeId::new(0), *r)))
/// };
/// let report = Driver::new(&cfg, program).run();
/// assert_eq!(report.accesses(cenju4_sim::AccessClass::SharedRemote), 9);
/// # Ok::<(), cenju4_sim::ConfigError>(())
/// ```
pub struct Driver<P: Program> {
    eng: Engine,
    program: P,
    cfg: SystemConfig,
    state: Vec<NodeRun>,
    reports: Vec<NodeReport>,
    /// Nodes whose program has not finished: the barrier's quorum.
    alive: usize,
    barrier_arrived: usize,
    /// reuse count of the access each node is blocked on.
    pending_reuse: Vec<u32>,
    hist: Vec<cenju4_des::stats::Histogram>,
    /// The notification buffer every pump reuses; empty between pumps.
    notes: Vec<Notification>,
}

impl<P: Program> Driver<P> {
    /// Builds a driver over a fresh engine for `cfg`.
    pub fn new(cfg: &SystemConfig, program: P) -> Self {
        let n = cfg.sys.nodes() as usize;
        Driver {
            eng: Engine::new(cfg),
            program,
            cfg: cfg.clone(),
            state: vec![NodeRun::Ready; n],
            reports: vec![NodeReport::default(); n],
            alive: n,
            barrier_arrived: 0,
            pending_reuse: vec![1; n],
            hist: crate::report::AccessClass::ALL
                .iter()
                .map(|_| cenju4_des::stats::Histogram::new(100, 100))
                .collect(),
            notes: Vec::new(),
        }
    }

    /// Access to the underlying engine (for post-run inspection).
    pub fn engine(&self) -> &Engine {
        &self.eng
    }

    /// Mutable access to the engine before running — e.g. to mark blocks
    /// as update-protocol (`Engine::mark_update_block`).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.eng
    }

    /// Runs every node's program to completion and returns the report.
    ///
    /// Barriers synchronize the nodes still executing: a node that has
    /// finished its program no longer participates, so programs with
    /// uneven step counts terminate rather than deadlock.
    pub fn run(mut self) -> RunReport {
        self.start();
        while self.pump() {}
        self.finish()
    }

    /// Primes every node's program (the time-zero advance). Call once on
    /// a fresh driver before pumping; [`Driver::run`] does this itself.
    pub fn start(&mut self) {
        let nodes = self.cfg.sys.nodes();
        for i in 0..nodes {
            self.advance(NodeId::new(i), SimTime::ZERO);
        }
    }

    /// Processes one engine event — the unit a checkpoint sits between.
    /// Returns `false` once the simulation is quiescent.
    ///
    /// # Panics
    ///
    /// Panics on [`Notification::RecoveryFailed`]: some access will
    /// never complete and the timing report would be meaningless.
    pub fn pump(&mut self) -> bool {
        // Taken out for the step so `advance` can borrow `self`; handed
        // back drained, its capacity kept.
        let mut notes = std::mem::take(&mut self.notes);
        if !self.eng.run_next(&mut notes) {
            self.notes = notes;
            return false;
        }
        for note in notes.drain(..) {
            match note {
                Notification::Completed {
                    node,
                    addr,
                    issued,
                    finished,
                    hit,
                    l3,
                    ..
                } => {
                    // An L2 miss refilled from the node's own
                    // third-level cache (update-protocol extension)
                    // is a *local* access regardless of the home.
                    let class = if l3 || addr.home() == node {
                        AccessClass::SharedLocal
                    } else {
                        AccessClass::SharedRemote
                    };
                    self.hist[class.idx()].record(finished.since(issued).as_ns());
                    let r = &mut self.reports[node.as_usize()];
                    r.record(class, !hit, finished.since(issued));
                    // The remaining accesses of the visit hit in cache.
                    let extra = self.pending_reuse[node.as_usize()] - 1;
                    let t = finished + r.record_hits(class, extra.into(), self.cfg.proto.hit);
                    self.advance(node, t);
                }
                Notification::Marker { token, at } => {
                    let node = NodeId::new(token as u16);
                    self.advance(node, at);
                }
                // Kernel programs do not use the message-passing API;
                // deliveries would come from driver extensions.
                Notification::MessageDelivered { .. } => {}
                // The recovery layer exhausted its retry budget: some
                // access will never complete and the timing report
                // would be meaningless. Fail loudly.
                Notification::RecoveryFailed { at, error } => {
                    panic!("recovery failed at {at:?}: {error}")
                }
            }
        }
        self.notes = notes;
        true
    }

    /// Finalizes a drained driver into its report.
    pub fn finish(self) -> RunReport {
        debug_assert!(
            self.state.iter().all(|s| matches!(s, NodeRun::Finished)),
            "driver drained its events with unfinished nodes"
        );
        RunReport {
            nodes: self.reports,
            latency_hist: self.hist,
        }
    }

    /// Whether every node's program has finished (the engine may still
    /// owe a final pump to drain to quiescence).
    pub fn finished(&self) -> bool {
        self.alive == 0
    }

    /// Rebuilds a driver at a checkpoint by deterministic replay: a
    /// fresh driver over `cfg` runs `program` forward until the engine
    /// has dispatched `steps` events. A checkpoint of a run is just its
    /// [`Engine::steps`] count taken between pumps: because the driver
    /// loop is deterministic, the rebuilt driver — engine, reports,
    /// histograms, program position — is bit-identical to the original
    /// at that count, and running it to completion produces exactly the
    /// uninterrupted run's report. `program` must be a fresh copy of the
    /// program the original driver started with, and `cfg` the same
    /// configuration.
    ///
    /// Returns `None` when the replay goes quiescent before `steps` (a
    /// different program or configuration, or a count past the run's end).
    pub fn resume(cfg: &SystemConfig, program: P, steps: u64) -> Option<Self> {
        let mut d = Driver::new(cfg, program);
        d.start();
        while d.eng.steps() < steps {
            if !d.pump() {
                return None;
            }
        }
        Some(d)
    }

    /// Executes steps for `node` starting at time `t` until the node
    /// blocks (access, think, barrier) or finishes.
    fn advance(&mut self, node: NodeId, mut t: SimTime) {
        loop {
            let Some(step) = self.program.next_step(node) else {
                self.state[node.as_usize()] = NodeRun::Finished;
                self.reports[node.as_usize()].finished = t;
                self.alive -= 1;
                // A finishing node may have been the last straggler a
                // barrier was waiting for.
                if self.barrier_arrived > 0 && self.barrier_arrived == self.alive {
                    self.release_barrier();
                }
                return;
            };
            match step {
                Step::Access {
                    op,
                    target: Target::Shared(addr),
                    reuse,
                } => {
                    self.state[node.as_usize()] = NodeRun::Waiting;
                    self.pending_reuse[node.as_usize()] = reuse.max(1);
                    self.eng
                        .try_issue(t, node, op, addr)
                        .unwrap_or_else(|e| panic!("program step rejected: {e}"));
                    return;
                }
                Step::Barrier => {
                    self.state[node.as_usize()] = NodeRun::AtBarrier(t);
                    self.barrier_arrived += 1;
                    if self.barrier_arrived == self.alive {
                        self.release_barrier();
                    }
                    return;
                }
                Step::Think(_) | Step::Access { .. } => {
                    let d = self.reports[node.as_usize()]
                        .record_local(step, &self.cfg.proto)
                        .expect("think and private steps involve their node alone");
                    // Other nodes run during think time: the node waits
                    // for a marker at its end.
                    if matches!(step, Step::Think(_)) && d != Duration::ZERO {
                        self.state[node.as_usize()] = NodeRun::Waiting;
                        self.eng.schedule_marker(t + d, node.index() as u64);
                        return;
                    }
                    t += d;
                }
            }
        }
    }

    fn release_barrier(&mut self) {
        let last = self
            .state
            .iter()
            .filter_map(|s| match s {
                NodeRun::AtBarrier(t) => Some(*t),
                _ => None,
            })
            .max()
            .expect("barrier release without waiters");
        let release = last + self.cfg.barrier_cost();
        for i in 0..self.state.len() {
            if let NodeRun::AtBarrier(arrived) = self.state[i] {
                let r = &mut self.reports[i];
                r.sync += release.since(arrived);
                r.barriers += 1;
                self.state[i] = NodeRun::Waiting;
                self.eng.schedule_marker(release, i as u64);
            }
        }
        self.barrier_arrived = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: u16) -> SystemConfig {
        SystemConfig::builder(n).build().unwrap()
    }

    /// A program built from a per-node vector of steps.
    struct Scripted {
        steps: Vec<std::collections::VecDeque<Step>>,
    }

    impl Scripted {
        fn uniform(nodes: u16, steps: Vec<Step>) -> Self {
            Scripted {
                steps: (0..nodes)
                    .map(|_| steps.iter().copied().collect())
                    .collect(),
            }
        }
    }

    impl Program for Scripted {
        fn next_step(&mut self, node: NodeId) -> Option<Step> {
            self.steps[node.as_usize()].pop_front()
        }
    }

    #[test]
    fn empty_programs_finish_at_zero() {
        let report = Driver::new(&cfg(4), Scripted::uniform(4, vec![])).run();
        assert_eq!(report.total_time(), SimTime::ZERO);
    }

    #[test]
    fn think_time_accumulates() {
        let report = Driver::new(
            &cfg(4),
            Scripted::uniform(4, vec![Step::Think(Duration::from_ns(100)); 3]),
        )
        .run();
        assert_eq!(report.total_time(), SimTime::from_ns(300));
        assert_eq!(report.nodes[0].think.as_ns(), 300);
    }

    #[test]
    fn private_accesses_classified() {
        let steps = vec![Step::private_hit(1), Step::private_miss(1)];
        let report = Driver::new(&cfg(4), Scripted::uniform(4, steps)).run();
        assert_eq!(report.accesses(AccessClass::Private), 8);
        assert_eq!(report.misses(AccessClass::Private), 4);
        // 30 + 470 per node.
        assert_eq!(report.total_time(), SimTime::from_ns(500));
    }

    #[test]
    fn shared_accesses_split_local_remote() {
        let steps = vec![Step::load(Addr::new(NodeId::new(0), 0))];
        let report = Driver::new(&cfg(4), Scripted::uniform(4, steps)).run();
        assert_eq!(report.accesses(AccessClass::SharedLocal), 1); // node 0
        assert_eq!(report.accesses(AccessClass::SharedRemote), 3);
        assert_eq!(report.miss_ratio(), 1.0); // all cold misses
    }

    #[test]
    fn barriers_synchronize_and_cost_time() {
        // Node 0 thinks long; everyone then crosses a barrier.
        struct Skewed {
            done: Vec<u8>,
        }
        impl Program for Skewed {
            fn next_step(&mut self, node: NodeId) -> Option<Step> {
                let phase = &mut self.done[node.as_usize()];
                *phase += 1;
                match *phase {
                    1 => Some(Step::Think(Duration::from_ns(if node.index() == 0 {
                        10_000
                    } else {
                        100
                    }))),
                    2 => Some(Step::Barrier),
                    _ => None,
                }
            }
        }
        let c = cfg(4);
        let report = Driver::new(&c, Skewed { done: vec![0; 4] }).run();
        let expect = SimTime::from_ns(10_000) + c.barrier_cost();
        assert_eq!(report.total_time(), expect);
        // The fast nodes waited ~9.9µs + barrier; node 0 only the barrier.
        assert!(report.nodes[1].sync > report.nodes[0].sync);
        assert_eq!(report.nodes[0].barriers, 1);
    }

    #[test]
    fn sync_fraction_positive_with_imbalance() {
        struct Imbalanced {
            phase: Vec<u8>,
        }
        impl Program for Imbalanced {
            fn next_step(&mut self, node: NodeId) -> Option<Step> {
                let p = &mut self.phase[node.as_usize()];
                *p += 1;
                match *p {
                    1 => Some(Step::Think(Duration::from_ns(
                        (node.index() as u64 + 1) * 1000,
                    ))),
                    2 => Some(Step::Barrier),
                    _ => None,
                }
            }
        }
        let report = Driver::new(&cfg(4), Imbalanced { phase: vec![0; 4] }).run();
        assert!(report.sync_fraction() > 0.0);
    }

    #[test]
    fn barrier_releases_when_other_nodes_finish() {
        // Only node 0 hits a barrier; the others end immediately. The
        // barrier must synchronize the *alive* set and release.
        struct Broken {
            phase: Vec<u8>,
        }
        impl Program for Broken {
            fn next_step(&mut self, node: NodeId) -> Option<Step> {
                let p = &mut self.phase[node.as_usize()];
                *p += 1;
                if node.index() == 0 && *p == 1 {
                    Some(Step::Barrier)
                } else {
                    None
                }
            }
        }
        let report = Driver::new(&cfg(4), Broken { phase: vec![0; 4] }).run();
        assert_eq!(report.nodes[0].barriers, 1);
    }

    #[test]
    fn closure_programs_work() {
        let mut left = 2;
        let report = Driver::new(&cfg(2), move |node: NodeId| {
            if node.index() == 0 && left > 0 {
                left -= 1;
                Some(Step::store(Addr::new(NodeId::new(1), 0)))
            } else {
                None
            }
        })
        .run();
        assert_eq!(report.accesses(AccessClass::SharedRemote), 2);
        // Second store hits in cache (Modified).
        assert_eq!(report.misses(AccessClass::SharedRemote), 1);
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;
    use crate::report::AccessClass;
    use crate::SystemConfig;

    #[test]
    fn latency_histograms_capture_class_separation() {
        let cfg = SystemConfig::builder(16).build().unwrap();
        let mut left = 40u32;
        let report = Driver::new(&cfg, move |node: NodeId| {
            if node.index() != 0 || left == 0 {
                return None;
            }
            left -= 1;
            // Alternate local and remote cold loads.
            let home = if left.is_multiple_of(2) { 0 } else { 1 };
            Some(Step::load(Addr::new(NodeId::new(home), left)))
        })
        .run();
        let local = report.latency_mean(AccessClass::SharedLocal);
        let remote = report.latency_mean(AccessClass::SharedRemote);
        assert!(local > 0.0 && remote > local, "{local} !< {remote}");
        // Quantiles are ordered and in the right ballpark (610 vs 1710).
        let p50_local = report.latency_quantile(AccessClass::SharedLocal, 0.5);
        let p50_remote = report.latency_quantile(AccessClass::SharedRemote, 0.5);
        assert!((500..800).contains(&p50_local), "{p50_local}");
        assert!((1500..2000).contains(&p50_remote), "{p50_remote}");
    }
}
