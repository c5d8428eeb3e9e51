//! Bit-identity guard for the hot-path flattening: two traced scenarios
//! (the paper's Figure 10 store-latency shape and a Figure 12-style mixed
//! workload) are replayed and their full protocol trace *plus* a
//! formatted dump of every `EngineStats`/`NetStats` counter is compared
//! byte-for-byte against goldens blessed on the map-keyed, deep-cloning
//! hot path. Each scenario also runs with the recovery layer armed
//! against an inert fault plan, pinning the sequenced-link path.
//!
//! Four larger scenarios (protocol-txn, multicast-storm, recovery-soak,
//! and a CG run on §4.2.3 update blocks) are pinned by the work they do:
//! the number of events the engine dispatched and accesses it completed,
//! followed by the same stats dump. These counts are host-independent,
//! so a change that adds work per transaction fails here on any machine;
//! timing claims go through the same-host pairs of `benchmark/` instead.
//!
//! **No-re-bless rule:** these goldens were captured *before* the dense
//! tables / shared payloads landed (the three work-count goldens on the
//! engine that retired the wall-clock harness). An optimization PR may
//! never rewrite them — a diff here means the "optimization" changed
//! behavior.
//!
//! To bless on a genuinely intentional protocol change:
//!
//! ```text
//! CENJU4_BLESS_GOLDEN=1 cargo test --test golden_hotpath
//! ```

use cenju4::prelude::*;

fn node(n: u16) -> NodeId {
    NodeId::new(n)
}

/// A plan that is *not* `FaultPlan::is_none()` — so the go-back-N layer
/// arms, sequences every frame, and runs its timers — but whose single
/// one-shot can never fire (`nth` is unreachably large). Deterministic
/// and fault-free, it exercises the armed hot path without perturbation.
fn inert_plan() -> FaultPlan {
    FaultPlan::none().with_one_shot(OneShotFault {
        link: Some((node(0), node(1))),
        class: Some(WireClass::Other),
        nth: u64::MAX,
        kind: FaultKind::Drop,
    })
}

fn engine(nodes: u16, armed: bool) -> Engine {
    let mut builder = SystemConfig::builder(nodes);
    if armed {
        builder = builder
            .recovery(RecoveryParams::default())
            .fault_plan(inert_plan());
    }
    let cfg = builder.build().expect("valid node count");
    let mut eng = Engine::new(&cfg);
    eng.enable_trace(16384);
    eng
}

/// Issues one access and runs the engine to quiescence.
fn access(eng: &mut Engine, n: u16, op: MemOp, a: Addr) {
    eng.issue(eng.now(), node(n), op, a);
    eng.run();
}

/// Renders every counter of both stats blocks in a fixed order; any
/// change to message counts, fan-out copies, gather combining, queueing
/// waits, or recovery bookkeeping shows up here even if the per-block
/// trace happens to be unchanged.
fn stats_fingerprint(eng: &Engine) -> String {
    let s = eng.stats();
    let n = eng.net_stats();
    let mut out = String::from("--- engine stats ---\n");
    for (name, c) in [
        ("completed", &s.completed),
        ("hits", &s.hits),
        ("requests", &s.requests),
        ("queued_requests", &s.queued_requests),
        ("nacks", &s.nacks),
        ("retries", &s.retries),
        ("writebacks", &s.writebacks),
        ("invalidations", &s.invalidations),
        ("invalidation_copies", &s.invalidation_copies),
        ("forwards", &s.forwards),
        ("updates", &s.updates),
        ("l3_fills", &s.l3_fills),
        ("faults_injected", &s.faults_injected),
        ("retransmits", &s.retransmits),
        ("link_discards", &s.link_discards),
        ("gather_reissues", &s.gather_reissues),
        ("recovery_errors", &s.recovery_errors),
        ("stalls", &s.stalls),
    ] {
        out.push_str(&format!("{name}: {}\n", c.get()));
    }
    out.push_str("--- net stats ---\n");
    for (name, c) in [
        ("unicasts", &n.unicasts),
        ("multicasts", &n.multicasts),
        ("multicast_copies", &n.multicast_copies),
        ("gather_replies", &n.gather_replies),
        ("gather_absorbed", &n.gather_absorbed),
        ("gather_delivered", &n.gather_delivered),
        ("delivered", &n.delivered),
        ("faults_dropped", &n.faults_dropped),
        ("faults_duplicated", &n.faults_duplicated),
        ("faults_delayed", &n.faults_delayed),
    ] {
        out.push_str(&format!("{name}: {}\n", c.get()));
    }
    out.push_str(&format!(
        "gather_concurrency_peak: {}\n",
        n.gather_concurrency.peak()
    ));
    for (name, w) in [
        ("port_wait", &n.port_wait),
        ("endpoint_wait", &n.endpoint_wait),
    ] {
        out.push_str(&format!(
            "{name}: count={} sum_ns={}\n",
            w.count(),
            // Mean is exact here: waits are integral ns pushed as f64.
            (w.mean() * w.count() as f64).round() as u64,
        ));
    }
    out.push_str(&format!("final_time_ns: {}\n", eng.now().as_ns()));
    out
}

/// Compares `got` against `tests/golden/<name>.txt`, or rewrites the
/// golden when `CENJU4_BLESS_GOLDEN` is set.
fn check_golden(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("CENJU4_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"))).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; bless with CENJU4_BLESS_GOLDEN=1"));
    assert_eq!(
        got, want,
        "{name} diverged from its golden (no re-bless for optimization PRs)"
    );
}

/// Figure 10 shape: warm four sharers with loads, then store from a
/// sharer — one multicast invalidation gathered through the tree.
fn fig10(armed: bool) -> String {
    let mut eng = engine(16, armed);
    let a = Addr::new(node(0), 1);
    for s in 1..=4 {
        access(&mut eng, s, MemOp::Load, a);
    }
    access(&mut eng, 1, MemOp::Store, a);
    format!("{}{}", eng.trace().dump_block(a), stats_fingerprint(&eng))
}

/// Figure 12 shape: a seeded mixed workload on a 64-node machine —
/// loads, stores, ownership upgrades, writeback victims, and forwards
/// across eight blocks on two homes.
fn fig12(armed: bool) -> String {
    let mut eng = engine(64, armed);
    let mut rng = SplitMix64::new(0xF1612);
    let blocks: Vec<Addr> = (0..8)
        .map(|b| Addr::new(node((b % 2) as u16), 1 + b / 2))
        .collect();
    for _ in 0..200 {
        let n = rng.next_below(64) as u16;
        let op = if rng.next_below(3) == 0 {
            MemOp::Store
        } else {
            MemOp::Load
        };
        let a = blocks[rng.next_below(8) as usize];
        access(&mut eng, n, op, a);
    }
    let mut out = String::new();
    for a in [blocks[0], blocks[5]] {
        out.push_str(&eng.trace().dump_block(a));
    }
    out.push_str(&stats_fingerprint(&eng));
    out
}

#[test]
fn fig10_trace_and_stats_bit_identical() {
    check_golden("fig10_hotpath", &fig10(false));
}

#[test]
fn fig10_trace_and_stats_bit_identical_armed() {
    check_golden("fig10_hotpath_armed", &fig10(true));
}

#[test]
fn fig12_trace_and_stats_bit_identical() {
    check_golden("fig12_hotpath", &fig12(false));
}

#[test]
fn fig12_trace_and_stats_bit_identical_armed() {
    check_golden("fig12_hotpath_armed", &fig12(true));
}

/// Work a hot-path scenario made the engine do.
#[derive(Default)]
struct Work {
    dispatched: u64,
    completed: u64,
}

/// Issues one access at the current time and drains the engine one
/// event at a time, counting dispatched events and completed accesses.
/// Panics if the recovery layer gives up. The closing `run()` finds the
/// queue empty and only performs its gather-leak check.
fn drive(eng: &mut Engine, work: &mut Work, n: u16, op: MemOp, a: Addr) {
    eng.issue(eng.now(), node(n), op, a);
    let mut notes = Vec::new();
    while eng.run_next(&mut notes) {
        work.dispatched += 1;
        for note in notes.drain(..) {
            match note {
                Notification::Completed { .. } => work.completed += 1,
                Notification::RecoveryFailed { at, error } => {
                    panic!("recovery failed at {at:?}: {error}")
                }
                _ => {}
            }
        }
    }
    assert!(eng.run().is_empty(), "events left after run_next drained");
}

/// Renders a hot-path scenario's work counts ahead of its stats.
fn hotpath_report(eng: &Engine, work: &Work) -> String {
    assert_eq!(eng.outstanding_txn_count(), 0, "accesses left outstanding");
    format!(
        "dispatched_events: {}\ncompleted: {}\n{}",
        work.dispatched,
        work.completed,
        stats_fingerprint(eng)
    )
}

/// Stores on even `(node + round)`, loads on odd.
fn alternating_op(n: u16, r: u32) -> MemOp {
    if (n as u32 + r).is_multiple_of(2) {
        MemOp::Store
    } else {
        MemOp::Load
    }
}

/// protocol-txn: rounds of mixed loads/stores on a 128-node (4-stage)
/// machine; every access is a full coherence transaction whose unicasts
/// cross four switch stages. Four blocks on two homes keep several
/// directories and sharer sets hot at once.
fn protocol_txn() -> String {
    const NODES: u16 = 128;
    const ROUNDS: u32 = 24;
    let mut eng = Engine::new(&SystemConfig::builder(NODES).build().expect("valid nodes"));
    let mut work = Work::default();
    for r in 0..ROUNDS {
        for n in 0..NODES {
            let a = Addr::new(node(n % 2), (r % 2) + 1);
            drive(&mut eng, &mut work, n, alternating_op(n, r), a);
        }
    }
    hotpath_report(&eng, &work)
}

/// multicast-storm: a 64-node machine repeatedly warms a 32-sharer set
/// and then stores from a non-sharer, so every store is a 32-way
/// multicast invalidation plus a combining-tree gather of the acks.
fn multicast_storm() -> String {
    const NODES: u16 = 64;
    const SHARERS: u16 = 32;
    const ROUNDS: u32 = 20;
    let mut eng = Engine::new(&SystemConfig::builder(NODES).build().expect("valid nodes"));
    let a = Addr::new(node(0), 1);
    let mut work = Work::default();
    for r in 0..ROUNDS {
        for s in 0..SHARERS {
            drive(&mut eng, &mut work, 2 + s, MemOp::Load, a);
        }
        let storer = 1 + (r % 2) as u16 * 40; // outside nodes 2..=33
        drive(&mut eng, &mut work, storer, MemOp::Store, a);
    }
    hotpath_report(&eng, &work)
}

/// recovery-soak: mixed accesses on an 8-node machine with the recovery
/// layer armed against a lossy plan (drops, duplicates, delays), which
/// exercises frame sequencing, retransmission timers and receiver-side
/// dedup. Recovery must never give up.
fn recovery_soak() -> String {
    const NODES: u16 = 8;
    const ROUNDS: u32 = 64;
    let plan = FaultPlan {
        seed: 0xC4_50AC,
        drop_permille: 15,
        dup_permille: 10,
        delay_permille: 10,
        max_delay_ns: 400,
        ..FaultPlan::default()
    };
    let cfg = SystemConfig::builder(NODES)
        .recovery(RecoveryParams::default())
        .fault_plan(plan)
        .build()
        .expect("valid nodes");
    let mut eng = Engine::new(&cfg);
    let mut work = Work::default();
    for r in 0..ROUNDS {
        for n in 0..NODES {
            let a = Addr::new(node(0), r % 2);
            drive(&mut eng, &mut work, n, alternating_op(n, r), a);
        }
    }
    hotpath_report(&eng, &work)
}

/// cg-update: the §4.2.3 update protocol under a whole workload — CG
/// dsm2, mapped, with both shared vectors marked as update blocks (the
/// setup of `runner::run_cg_with_update`, with a smaller L2). Driven one
/// event at a time through `Driver::start`/`pump`; subscription reads,
/// write-through pushes and L3 refills must all occur.
fn cg_update() -> String {
    use cenju4::workloads::array::{Mapping, SharedArray};
    use cenju4::workloads::{AppParams, KernelProgram};
    const NODES: u16 = 32;
    const SCALE: f64 = 0.5;
    // An L2 smaller than the two vectors, so evicted vector lines
    // refill from the node's L3.
    let cfg = SystemConfig::builder(NODES)
        .proto(ProtoParams {
            cache_bytes: 16 * 1024,
            ..ProtoParams::default()
        })
        .build()
        .expect("valid nodes");
    let prog = KernelProgram::build(AppKind::Cg, Variant::Dsm2, true, &cfg, SCALE);
    let mut driver = Driver::new(&cfg, prog);
    let p = AppParams::for_app(AppKind::Cg, SCALE);
    for array_id in [0u32, 1] {
        let arr = SharedArray::new(array_id, p.blocks, NODES, Mapping::Partitioned);
        for b in 0..p.blocks {
            driver.engine_mut().mark_update_block(arr.addr(b));
        }
    }
    driver.start();
    let mut work = Work::default();
    while driver.pump() {
        work.dispatched += 1;
    }
    let eng = driver.engine();
    let s = eng.stats();
    assert!(s.updates.get() > 0, "no update pushes");
    assert!(s.l3_fills.get() > 0, "no L3 refills");
    work.completed = s.completed.get();
    let out = hotpath_report(eng, &work);
    let report = driver.finish();
    format!("{out}run_total_time_ns: {}\n", report.total_time().as_ns())
}

#[test]
fn cg_update_work_counts_pinned() {
    check_golden("cg_update_hotpath", &cg_update());
}

/// The three hot-path scenarios are pinned by the work they do, not by
/// wall-clock time: an extra dispatched event per transaction moves
/// `dispatched_events` on any host.
#[test]
fn protocol_txn_work_counts_pinned() {
    check_golden("protocol_txn_hotpath", &protocol_txn());
}

#[test]
fn multicast_storm_work_counts_pinned() {
    check_golden("multicast_storm_hotpath", &multicast_storm());
}

#[test]
fn recovery_soak_work_counts_pinned() {
    check_golden("recovery_soak_hotpath", &recovery_soak());
}

/// The two paper-figure probes themselves, pinned end to end: exact
/// store latencies for growing sharer sets (the paper's headline claim
/// that latency scales with stages, not nodes).
#[test]
fn fig10_probe_latencies_unchanged() {
    let cfg = SystemConfig::builder(16).build().unwrap();
    let lats: Vec<u64> = [2u16, 4, 8, 16]
        .iter()
        .map(|&k| probes::store_latency(&cfg, k).as_ns())
        .collect();
    assert_eq!(lats, PINNED_STORE_LATENCIES_NS);
}

/// Store latencies for 2/4/8/16 sharers on 16 nodes, captured from the
/// pre-flattening engine.
const PINNED_STORE_LATENCIES_NS: [u64; 4] = [2620, 3135, 3360, 3510];

#[test]
fn table2_load_latencies_unchanged() {
    let r = probes::load_latencies(&SystemConfig::builder(16).build().unwrap());
    assert_eq!(r.private.as_ns(), 470);
    assert_eq!(r.shared_local_clean.as_ns(), 610);
    assert_eq!(r.shared_remote_clean.as_ns(), 1710);
    assert_eq!(r.shared_local_dirty.as_ns(), 1920);
    assert_eq!(r.shared_remote_dirty.as_ns(), 3020);
}
