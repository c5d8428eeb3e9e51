//! `Engine::fork` identity: a fork taken at any step of a controlled
//! walk, driven with the same remaining choices as the original, ends in
//! the same state with the same notifications, statistics, network
//! counters, and trace — and forking never disturbs the original.
//! `Engine::fork_into` is held to a plain fork: copied into an engine of
//! another configuration at another position, it drives identically.
//! Forks of uncontrolled (time-ordered) engines are covered by the
//! workspace's `tests/snapshot_resume.rs`.

use cenju4_des::{Duration, SimTime, SplitMix64};
use cenju4_directory::NodeId;
use cenju4_network::{FaultPlan, NodeDown};
use cenju4_obs::SpanCollector;
use cenju4_protocol::trace::TraceRecord;
use cenju4_protocol::{
    Addr, Engine, MemOp, Notification, Observer, ProtocolId, ProtocolKind, RecoveryParams,
    SystemConfig, TxnId,
};

const NODES: u16 = 3;
const MAX_STEPS: usize = 4_000;
/// The step at which one more access is issued mid-walk, so forks taken
/// before it must also agree on transaction ids.
const LATE_ACCESS_AT: usize = 6;

#[derive(Clone, Copy, Debug)]
enum Setup {
    MesiQueuing,
    Nack,
    Dragon,
    LossyRecovery,
    NodeDownQuarantine,
}

const SETUPS: [Setup; 5] = [
    Setup::MesiQueuing,
    Setup::Nack,
    Setup::Dragon,
    Setup::LossyRecovery,
    Setup::NodeDownQuarantine,
];

fn blocks() -> [Addr; 2] {
    [Addr::new(NodeId::new(0), 0), Addr::new(NodeId::new(1), 4)]
}

/// A controlled engine for `setup`. Every node loads both blocks, then
/// stores one, so stores invalidate sharers through gathers.
fn build(setup: Setup) -> Engine {
    let cfg = SystemConfig::builder(NODES);
    let cfg = match setup {
        Setup::MesiQueuing => cfg,
        Setup::Nack => cfg.kind(ProtocolKind::Nack),
        Setup::Dragon => cfg.protocol(ProtocolId::Dragon),
        Setup::LossyRecovery => cfg
            // A short watchdog, so the walk crosses stall episodes.
            .recovery(RecoveryParams {
                watchdog: Duration::from_us(5),
                ..RecoveryParams::default()
            })
            .fault_plan(FaultPlan::random(7, 100)),
        Setup::NodeDownQuarantine => cfg.fault_plan(FaultPlan::none().with_node_down(NodeDown {
            node: NodeId::new(2),
            from_ns: 0,
            until_ns: u64::MAX,
        })),
    };
    let mut eng = Engine::new(&cfg.build().unwrap());
    eng.enable_controlled_schedule();
    eng.enable_trace(4096);
    let [b0, b1] = blocks();
    for n in 0..NODES {
        let node = NodeId::new(n);
        eng.issue(SimTime::ZERO, node, MemOp::Load, b0);
        eng.issue(SimTime::ZERO, node, MemOp::Load, b1);
        let stored = if n % 2 == 0 { b0 } else { b1 };
        eng.issue(SimTime::ZERO, node, MemOp::Store, stored);
    }
    eng
}

/// [`build`], with a span collector attached when `spans`.
fn build_observed(setup: Setup, spans: bool) -> Engine {
    let mut eng = build(setup);
    if spans {
        eng.add_observer(Box::new(SpanCollector::new(eng.system())));
    }
    eng
}

/// Fires the `pick`-th ready event as step `step` of the walk.
fn step(eng: &mut Engine, step: usize, pick: usize) -> Vec<Notification> {
    if step == LATE_ACCESS_AT {
        eng.issue(eng.now(), NodeId::new(1), MemOp::Store, blocks()[0]);
    }
    fire(eng, pick)
}

/// Fires the `pick`-th ready event.
fn fire(eng: &mut Engine, pick: usize) -> Vec<Notification> {
    let mut ready = Vec::new();
    eng.ready_choices(&mut ready);
    let idx = *ready.get(pick).expect("pick out of range");
    eng.run_pending(idx).expect("ready event vanished")
}

/// Everything the identity compares at the end of a run.
#[derive(Debug, PartialEq)]
struct Digest {
    fingerprint: u64,
    stats: String,
    net: String,
    trace: Vec<TraceRecord>,
    dropped: u64,
    now: SimTime,
}

fn digest(eng: &Engine) -> Digest {
    Digest {
        fingerprint: eng.state_fingerprint(&blocks()),
        stats: format!("{:?}", eng.stats()),
        net: format!("{:?}", eng.net_stats()),
        trace: eng.trace().records().iter().copied().collect(),
        dropped: eng.trace().dropped(),
        now: eng.now(),
    }
}

/// The reference run: a seeded walk on an engine that is never forked,
/// with the choice and notifications of every step and the final engine.
fn reference(setup: Setup) -> (Vec<usize>, Vec<Vec<Notification>>, Engine) {
    let mut eng = build(setup);
    let mut rng = SplitMix64::new(0x5EED ^ setup as u64);
    let (mut picks, mut notes, mut ready) = (Vec::new(), Vec::new(), Vec::new());
    while eng.pending_event_count() > 0 {
        assert!(picks.len() < MAX_STEPS, "{setup:?}: walk never quiesced");
        eng.ready_choices(&mut ready);
        let pick = rng.next_below(ready.len() as u64) as usize;
        notes.push(step(&mut eng, picks.len(), pick));
        picks.push(pick);
    }
    (picks, notes, eng)
}

#[test]
fn forks_at_every_step_match_the_unforked_run() {
    for setup in SETUPS {
        let (picks, notes, end) = reference(setup);
        let want = digest(&end);
        let mut eng = build(setup);
        for k in 0..=picks.len() {
            let mut fork = eng.fork().expect("built-in observers fork");
            assert_eq!(
                fork.state_fingerprint(&blocks()),
                eng.state_fingerprint(&blocks()),
                "{setup:?}: fork at step {k} differs from its original"
            );
            for (j, &p) in picks[k..].iter().enumerate() {
                assert_eq!(
                    step(&mut fork, k + j, p),
                    notes[k + j],
                    "{setup:?}: fork at step {k} diverged at step {}",
                    k + j
                );
            }
            assert_eq!(fork.pending_event_count(), 0);
            assert_eq!(digest(&fork), want, "{setup:?}: fork at step {k}");
            if k < picks.len() {
                assert_eq!(step(&mut eng, k, picks[k]), notes[k], "{setup:?}: step {k}");
            }
        }
        // The original, forked at every step, still ends like the
        // never-forked reference.
        assert_eq!(digest(&eng), want, "{setup:?}: original disturbed");
    }
}

/// The span collector's account of the run, if one is attached.
fn spans(eng: &Engine) -> Option<(String, String)> {
    eng.observer::<SpanCollector>()
        .map(|s| (s.event_fingerprint(), s.metrics().to_text()))
}

/// `fork_into` a destination that sits at another position of another
/// setup, span collector or not, drives exactly like a plain fork of the
/// same position: the same notifications at every remaining step, and
/// the same statistics, network counters, trace, fingerprint and spans
/// at the end.
#[test]
fn fork_into_any_destination_matches_a_plain_fork() {
    let walks: Vec<Vec<usize>> = SETUPS.iter().map(|&s| reference(s).0).collect();
    for (i, &setup) in SETUPS.iter().enumerate() {
        let picks = &walks[i];
        let with_spans = i % 2 == 0;
        let mut eng = build_observed(setup, with_spans);
        for k in 0..=picks.len() {
            // Another setup, rotating through all the others, part-way
            // through its own walk.
            let j = (i + 1 + k % (SETUPS.len() - 1)) % SETUPS.len();
            let at = (k * 7) % (walks[j].len() + 1);
            let mut dst = build_observed(SETUPS[j], k % 3 == 0);
            for (s, &p) in walks[j][..at].iter().enumerate() {
                step(&mut dst, s, p);
            }
            assert!(
                eng.fork_into(&mut dst),
                "{setup:?}: built-in observers fork"
            );
            let mut fork = eng.fork().expect("built-in observers fork");
            let ctx = format!("{setup:?} at step {k} into {:?} at step {at}", SETUPS[j]);
            assert_eq!(digest(&dst), digest(&fork), "{ctx}: copy differs");
            assert_eq!(spans(&dst).is_some(), with_spans, "{ctx}: observer slots");
            for (s, &p) in picks[k..].iter().enumerate() {
                assert_eq!(
                    step(&mut dst, k + s, p),
                    step(&mut fork, k + s, p),
                    "{ctx}: diverged at step {}",
                    k + s
                );
            }
            assert_eq!(digest(&dst), digest(&fork), "{ctx}: end state");
            assert_eq!(spans(&dst), spans(&fork), "{ctx}: spans");
            if k < picks.len() {
                step(&mut eng, k, picks[k]);
            }
        }
    }
}

/// The configurations exercise what they are named for.
#[test]
fn setups_reach_their_protocol_paths() {
    let stats = |setup| reference(setup).2.stats().clone();
    assert!(stats(Setup::MesiQueuing).invalidation_copies.get() >= 1);
    assert!(stats(Setup::Nack).nacks.get() >= 1, "no request nacked");
    assert!(stats(Setup::Dragon).updates.get() >= 1, "no update pushed");
    let lossy = stats(Setup::LossyRecovery);
    assert!(lossy.faults_injected.get() >= 1, "no message dropped");
    assert!(lossy.retransmits.get() >= 1, "no retransmission");
    assert!(lossy.stalls.get() >= 1, "the watchdog never fired");
    let down = stats(Setup::NodeDownQuarantine);
    assert!(down.node_quarantines.get() >= 1, "node never quarantined");
}

/// Counts accesses; forks with its count.
#[derive(Clone, Default)]
struct Forkable {
    accesses: u64,
}

impl Observer for Forkable {
    fn on_access(&mut self, _: SimTime, _: NodeId, _: MemOp, _: Addr, _: TxnId) {
        self.accesses += 1;
    }

    fn fork(&self) -> Option<Box<dyn Observer>> {
        Some(Box::new(self.clone()))
    }
}

/// Does not implement `fork`.
#[derive(Default)]
struct Unforkable;

impl Observer for Unforkable {}

#[test]
fn user_observers_fork_or_decline() {
    let mut eng = build(Setup::MesiQueuing);
    eng.add_observer(Box::new(Forkable::default()));
    fire(&mut eng, 0);
    let mut fork = eng.fork().expect("every observer forks");
    assert_eq!(fork.observer::<Forkable>().unwrap().accesses, 1);
    fire(&mut fork, 0);
    assert_eq!(fork.observer::<Forkable>().unwrap().accesses, 2);
    assert_eq!(
        eng.observer::<Forkable>().unwrap().accesses,
        1,
        "the fork's observer is a copy, not an alias"
    );
    eng.add_observer(Box::new(Unforkable));
    assert!(
        eng.fork().is_none(),
        "an observer without fork must decline"
    );
}

/// A user observer that implements only `fork` copies through the
/// default `fork_into`, into an empty slot or over one of its own; one
/// that implements neither makes `fork_into` decline.
#[test]
fn user_observers_fork_into_or_decline() {
    let mut eng = build(Setup::MesiQueuing);
    eng.add_observer(Box::new(Forkable::default()));
    fire(&mut eng, 0);
    let mut bare = build(Setup::Nack);
    fire(&mut bare, 0);
    let mut held = build(Setup::Dragon);
    held.add_observer(Box::new(Forkable { accesses: 99 }));
    for dst in [&mut bare, &mut held] {
        assert!(eng.fork_into(dst), "every observer forks");
        assert_eq!(dst.observer::<Forkable>().unwrap().accesses, 1);
        fire(dst, 0);
        assert_eq!(dst.observer::<Forkable>().unwrap().accesses, 2);
    }
    assert_eq!(
        eng.observer::<Forkable>().unwrap().accesses,
        1,
        "the copy's observer is a copy, not an alias"
    );
    eng.add_observer(Box::new(Unforkable));
    assert!(
        !eng.fork_into(&mut bare),
        "an observer without fork must decline"
    );
}
