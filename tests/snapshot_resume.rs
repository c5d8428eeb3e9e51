//! Snapshot/restore property test: interrupting a simulation at an
//! arbitrary dispatch-step boundary and resuming from the snapshot must
//! be invisible — the resumed engine's full protocol trace and counter
//! fingerprint are byte-identical to an uninterrupted run.
//!
//! The workloads are the two golden-pinned shapes from
//! `golden_hotpath.rs`: the Figure 10 sharer-warmup-then-store and the
//! Figure 12 seeded 200-access mix on 64 nodes. Cut points are chosen
//! by a seeded RNG — both *between* accesses (quiescent) and *mid-flight*
//! (a bounded number of dispatch steps into an access), which is the
//! interesting case: the snapshot captures a half-processed request.

use cenju4::prelude::*;
use cenju4::protocol::EngineSnapshot;

fn node(n: u16) -> NodeId {
    NodeId::new(n)
}

/// A replayable access script plus the trace blocks worth dumping.
struct Script {
    nodes: u16,
    accesses: Vec<(u16, MemOp, Addr)>,
    dump: Vec<Addr>,
}

/// Figure 10 shape: four sharers warmed by loads, then a store.
fn fig10() -> Script {
    let a = Addr::new(node(0), 1);
    let mut accesses: Vec<(u16, MemOp, Addr)> = (1..=4).map(|s| (s, MemOp::Load, a)).collect();
    accesses.push((1, MemOp::Store, a));
    Script {
        nodes: 16,
        accesses,
        dump: vec![a],
    }
}

/// Figure 12 shape: a seeded mixed workload across eight blocks.
fn fig12() -> Script {
    let mut rng = SplitMix64::new(0xF1612);
    let blocks: Vec<Addr> = (0..8)
        .map(|b| Addr::new(node((b % 2) as u16), 1 + b / 2))
        .collect();
    let accesses = (0..200)
        .map(|_| {
            let n = rng.next_below(64) as u16;
            let op = if rng.next_below(3) == 0 {
                MemOp::Store
            } else {
                MemOp::Load
            };
            (n, op, blocks[rng.next_below(8) as usize])
        })
        .collect();
    Script {
        nodes: 64,
        accesses,
        dump: vec![blocks[0], blocks[5]],
    }
}

fn engine(nodes: u16) -> Engine {
    let mut eng = SystemConfig::new(nodes).expect("valid nodes").build();
    eng.enable_trace(16384);
    eng
}

/// Trace dumps plus the counters most sensitive to replay drift.
fn fingerprint(eng: &Engine, script: &Script) -> String {
    let mut out = String::new();
    for a in &script.dump {
        out.push_str(&eng.trace().dump_block(*a));
    }
    let s = eng.stats();
    let n = eng.net_stats();
    out.push_str(&format!(
        "completed={} hits={} requests={} invalidations={} forwards={} writebacks={} \
         unicasts={} multicasts={} delivered={} steps={} now={}\n",
        s.completed.get(),
        s.hits.get(),
        s.requests.get(),
        s.invalidations.get(),
        s.forwards.get(),
        s.writebacks.get(),
        n.unicasts.get(),
        n.multicasts.get(),
        n.delivered.get(),
        eng.steps(),
        eng.now().as_ns(),
    ));
    out
}

/// The uninterrupted run: every access driven to quiescence in order.
fn reference(script: &Script) -> String {
    let mut eng = engine(script.nodes);
    for &(n, op, a) in &script.accesses {
        eng.issue(eng.now(), node(n), op, a);
        eng.run();
    }
    fingerprint(&eng, script)
}

/// Runs the script but snapshots after `cut` whole accesses plus
/// `mid_steps` dispatch steps into the next one, restores into a fresh
/// engine, and finishes there. Returns the resumed engine's fingerprint
/// (and asserts the snapshot position is where we asked).
fn interrupted(script: &Script, cut: usize, mid_steps: u64) -> String {
    let mut eng = engine(script.nodes);
    for &(n, op, a) in &script.accesses[..cut] {
        eng.issue(eng.now(), node(n), op, a);
        eng.run();
    }
    if cut < script.accesses.len() {
        let (n, op, a) = script.accesses[cut];
        eng.issue(eng.now(), node(n), op, a);
        let mut notes = Vec::new();
        for _ in 0..mid_steps {
            if !eng.run_next(&mut notes) {
                break; // quiescent early; snapshot there instead
            }
        }
    }
    let snap: EngineSnapshot = eng.snapshot().expect("snapshot mid-run");
    assert_eq!(snap.steps, eng.steps(), "snapshot pins the exact boundary");
    drop(eng);

    let mut resumed = engine(script.nodes);
    resumed.restore(&snap).expect("restore into a fresh engine");
    assert_eq!(resumed.steps(), snap.steps, "replay reached the boundary");
    // Finish the in-flight access, then the rest of the script.
    resumed.run();
    if cut < script.accesses.len() {
        for &(n, op, a) in &script.accesses[cut + 1..] {
            resumed.issue(resumed.now(), node(n), op, a);
            resumed.run();
        }
    }
    fingerprint(&resumed, script)
}

fn check_script(script: &Script, trials: usize, seed: u64) {
    let want = reference(script);
    let mut rng = SplitMix64::new(seed);
    for t in 0..trials {
        let cut = rng.next_below(script.accesses.len() as u64 + 1) as usize;
        let mid = rng.next_below(40);
        let got = interrupted(script, cut, mid);
        assert_eq!(
            got, want,
            "resume diverged (trial {t}: cut after {cut} accesses + {mid} steps)"
        );
    }
}

#[test]
fn fig10_resume_is_bit_identical_at_random_boundaries() {
    check_script(&fig10(), 8, 0x51A9_0001);
}

#[test]
fn fig12_resume_is_bit_identical_at_random_boundaries() {
    check_script(&fig12(), 6, 0x51A9_0002);
}

/// Degenerate boundaries: a snapshot before anything ran, and one at
/// full quiescence after the last access.
#[test]
fn edge_boundaries_round_trip() {
    for script in [fig10(), fig12()] {
        let want = reference(&script);
        assert_eq!(interrupted(&script, 0, 0), want, "empty snapshot");
        let end = script.accesses.len();
        assert_eq!(interrupted(&script, end, 0), want, "quiescent-end snapshot");
    }
}

/// A restored engine is itself snapshottable: replay re-journals the
/// inputs, so checkpoint → resume → checkpoint → resume still lands on
/// the reference fingerprint.
#[test]
fn double_resume_is_bit_identical() {
    let script = fig12();
    let want = reference(&script);

    let mut eng = engine(script.nodes);
    for &(n, op, a) in &script.accesses[..60] {
        eng.issue(eng.now(), node(n), op, a);
        eng.run();
    }
    let snap1 = eng.snapshot().expect("first snapshot");

    let mut mid = engine(script.nodes);
    mid.restore(&snap1).expect("first restore");
    for &(n, op, a) in &script.accesses[60..140] {
        mid.issue(mid.now(), node(n), op, a);
        mid.run();
    }
    let snap2 = mid.snapshot().expect("second snapshot");

    let mut fin = engine(script.nodes);
    fin.restore(&snap2).expect("second restore");
    for &(n, op, a) in &script.accesses[140..] {
        fin.issue(fin.now(), node(n), op, a);
        fin.run();
    }
    assert_eq!(fingerprint(&fin, &script), want);
}

/// Restore refuses a non-fresh engine and a node-count mismatch.
#[test]
fn restore_guards_reject_misuse() {
    let script = fig10();
    let mut eng = engine(script.nodes);
    let (n, op, a) = script.accesses[0];
    eng.issue(eng.now(), node(n), op, a);
    eng.run();
    let snap = eng.snapshot().expect("snapshot");

    // Same engine already ran — not fresh.
    assert!(eng.restore(&snap).is_err(), "non-fresh engine must refuse");

    // Wrong machine size.
    let mut other = engine(32);
    assert!(
        other.restore(&snap).is_err(),
        "node-count mismatch must refuse"
    );
}
