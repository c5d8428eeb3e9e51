//! Golden-trace regression tests for the module decomposition.
//!
//! The four appendix request types (read-shared, read-exclusive, ownership,
//! and the §4.2.3 update extension) are each driven through a small fixed
//! scenario with tracing enabled, and the per-block trace timeline is
//! compared byte-for-byte against a golden file captured from the
//! pre-refactor monolithic `Engine`. Any change to the master/home/slave
//! message sequences — ordering, timing, or labels — fails these tests.
//!
//! To regenerate the goldens after an *intentional* protocol change:
//!
//! ```text
//! CENJU4_BLESS_GOLDEN=1 cargo test -p cenju4-protocol --test golden_trace
//! ```

use cenju4_directory::NodeId;
use cenju4_protocol::{
    Addr, Engine, MemOp, ProtocolId, ProtocolKind, SystemConfig, SystemConfigBuilder,
};

fn traced(cfg: SystemConfigBuilder) -> Engine {
    let mut eng = Engine::new(&cfg.build().unwrap());
    eng.enable_trace(4096);
    eng
}

fn engine(nodes: u16) -> Engine {
    traced(SystemConfig::builder(nodes))
}

fn node(n: u16) -> NodeId {
    NodeId::new(n)
}

/// Issues one access and runs the engine to quiescence.
fn access(eng: &mut Engine, n: u16, op: MemOp, a: Addr) {
    eng.issue(eng.now(), node(n), op, a);
    eng.run();
}

/// Compares `got` against `tests/golden/<name>.txt`, or rewrites the file
/// when `CENJU4_BLESS_GOLDEN` is set.
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
        "trace for {name} diverged from the pre-refactor golden"
    );
}

/// Appendix read-shared over a dirty remote copy: the full forward path
/// (request → forward → slave data reply → home → data reply).
#[test]
fn golden_read_shared_forward() {
    let mut eng = engine(16);
    let a = Addr::new(node(0), 1);
    access(&mut eng, 1, MemOp::Store, a); // node 1 owns the block Modified
    access(&mut eng, 2, MemOp::Load, a); // read-shared hits the dirty path
    check_golden("read_shared_forward", &eng.trace().dump_block(a));
}

/// Appendix read-exclusive over a shared block: multicast invalidation with
/// gathered acks, then the exclusive data grant.
#[test]
fn golden_read_exclusive_invalidation() {
    let mut eng = engine(16);
    let a = Addr::new(node(0), 2);
    access(&mut eng, 1, MemOp::Load, a);
    access(&mut eng, 2, MemOp::Load, a); // two sharers
    access(&mut eng, 3, MemOp::Store, a); // read-exclusive invalidates both
    check_golden("read_exclusive_invalidation", &eng.trace().dump_block(a));
}

/// Appendix ownership: a sharer upgrades in place — other sharers are
/// invalidated and the requester gets an ack (no data transfer).
#[test]
fn golden_ownership_upgrade() {
    let mut eng = engine(16);
    let a = Addr::new(node(0), 3);
    access(&mut eng, 1, MemOp::Load, a);
    access(&mut eng, 2, MemOp::Load, a);
    access(&mut eng, 1, MemOp::Store, a); // shared → ownership request
    check_golden("ownership_upgrade", &eng.trace().dump_block(a));
}

/// The recovery layer's hard guarantee: with a lossless fabric
/// (`FaultPlan::none()`) an *enabled* recovery layer stays disarmed —
/// no sequence numbers, no timers, no dedup — and reproduces the same
/// goldens byte-for-byte. No re-bless allowed here.
#[test]
fn golden_traces_unchanged_with_recovery_enabled() {
    use cenju4_network::FaultPlan;
    use cenju4_protocol::RecoveryParams;

    let enabled = || {
        traced(
            SystemConfig::builder(16)
                .recovery(RecoveryParams::default())
                .fault_plan(FaultPlan::none()),
        )
    };
    // The forward path golden, recovery enabled.
    let mut eng = enabled();
    let a = Addr::new(node(0), 1);
    access(&mut eng, 1, MemOp::Store, a);
    access(&mut eng, 2, MemOp::Load, a);
    check_golden("read_shared_forward", &eng.trace().dump_block(a));

    // The multicast/gather golden, recovery enabled.
    let mut eng = enabled();
    let a = Addr::new(node(0), 2);
    access(&mut eng, 1, MemOp::Load, a);
    access(&mut eng, 2, MemOp::Load, a);
    access(&mut eng, 3, MemOp::Store, a);
    check_golden("read_exclusive_invalidation", &eng.trace().dump_block(a));
}

/// §4.2.3 update extension: subscribed readers receive pushed updates
/// instead of invalidations. Marking a block selects the update protocol
/// for it whatever the machine runs, so a Dragon machine and a nack
/// machine replay the same trace.
#[test]
fn golden_update_push() {
    let traces = [
        ("queuing-mesi", engine(16)),
        (
            "dragon",
            traced(SystemConfig::builder(16).protocol(ProtocolId::Dragon)),
        ),
        (
            "nack",
            traced(SystemConfig::builder(16).kind(ProtocolKind::Nack)),
        ),
    ]
    .map(|(machine, mut eng)| {
        let a = Addr::new(node(0), 4);
        eng.mark_update_block(a);
        access(&mut eng, 1, MemOp::Load, a);
        access(&mut eng, 2, MemOp::Load, a); // both subscribe
        access(&mut eng, 2, MemOp::Store, a); // update pushed to subscribers
        (machine, eng.trace().dump_block(a))
    });
    check_golden("update_push", &traces[0].1);
    for (machine, got) in &traces[1..] {
        assert_eq!(got, &traces[0].1, "update block on a {machine} machine");
    }
}
