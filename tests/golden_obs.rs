//! Zero-overhead guard for the observability subsystem.
//!
//! The span collector hangs off the `Observer` seam and is pure
//! instrumentation: with **no sink attached**, a run must stay
//! byte-for-byte identical to the goldens blessed before `crates/obs`
//! existed (`tests/golden/fig10_hotpath.txt` / `fig12_hotpath.txt`), and
//! — because observers cannot influence the protocol — attaching a
//! [`SpanCollector`] must not change the trace or a single counter
//! either. Both facts are checked against the *same* golden files as
//! `tests/golden_hotpath.rs`; nothing here may ever be re-blessed.
//!
//! The collector's own metrics dump for the fig12 scenario is pinned too
//! (`tests/golden/fig12_span_metrics.{txt,json}`): every counter name,
//! value and order the text and JSON exporters produce. Bless those two
//! — and only those — on a deliberate change to the exported metrics:
//!
//! ```text
//! CENJU4_BLESS_GOLDEN=1 cargo test --test golden_obs
//! ```

use cenju4::prelude::*;

fn node(n: u16) -> NodeId {
    NodeId::new(n)
}

fn engine(nodes: u16, traced: bool) -> Engine {
    let cfg = SystemConfig::builder(nodes)
        .build()
        .expect("valid node count");
    let sys = cfg.sys;
    let mut eng = Engine::new(&cfg);
    eng.enable_trace(16384);
    if traced {
        eng.add_observer(Box::new(SpanCollector::new(sys)));
    }
    eng
}

fn access(eng: &mut Engine, n: u16, op: MemOp, a: Addr) {
    eng.issue(eng.now(), node(n), op, a);
    eng.run();
}

/// The same fixed-order stats dump `tests/golden_hotpath.rs` fingerprints.
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
            (w.mean() * w.count() as f64).round() as u64,
        ));
    }
    out.push_str(&format!("final_time_ns: {}\n", eng.now().as_ns()));
    out
}

/// The fig10 golden scenario, optionally with a span collector attached.
fn fig10(traced: bool) -> String {
    let mut eng = engine(16, traced);
    let a = Addr::new(node(0), 1);
    for s in 1..=4 {
        access(&mut eng, s, MemOp::Load, a);
    }
    access(&mut eng, 1, MemOp::Store, a);
    format!("{}{}", eng.trace().dump_block(a), stats_fingerprint(&eng))
}

/// The fig12 golden scenario, optionally with a span collector attached.
fn fig12(traced: bool) -> String {
    let (eng, blocks) = fig12_engine(traced);
    let mut out = String::new();
    for a in [blocks[0], blocks[5]] {
        out.push_str(&eng.trace().dump_block(a));
    }
    out.push_str(&stats_fingerprint(&eng));
    out
}

/// The fig12 golden scenario's engine after its 200 accesses, and the
/// eight blocks they touch.
fn fig12_engine(traced: bool) -> (Engine, Vec<Addr>) {
    let mut eng = engine(64, traced);
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
    (eng, blocks)
}

/// Reads a pre-existing golden; this test file never blesses.
fn read_golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; bless via golden_hotpath"))
}

#[test]
fn fig10_without_sink_matches_pre_obs_golden() {
    assert_eq!(
        fig10(false),
        read_golden("fig10_hotpath"),
        "a no-observer run diverged from the pre-obs golden — the \
         observability subsystem is not zero-cost"
    );
}

#[test]
fn fig12_without_sink_matches_pre_obs_golden() {
    assert_eq!(
        fig12(false),
        read_golden("fig12_hotpath"),
        "a no-observer run diverged from the pre-obs golden — the \
         observability subsystem is not zero-cost"
    );
}

#[test]
fn fig10_with_collector_attached_is_still_bit_identical() {
    assert_eq!(
        fig10(true),
        read_golden("fig10_hotpath"),
        "attaching a SpanCollector changed the protocol trace — \
         observers must be pure instrumentation"
    );
}

#[test]
fn fig12_with_collector_attached_is_still_bit_identical() {
    assert_eq!(
        fig12(true),
        read_golden("fig12_hotpath"),
        "attaching a SpanCollector changed the protocol trace — \
         observers must be pure instrumentation"
    );
}

/// Compares `got` against `tests/golden/<file>`, or rewrites it when
/// `CENJU4_BLESS_GOLDEN` is set. Only the span-metrics goldens go
/// through here.
fn check_metrics_golden(file: &str, got: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("CENJU4_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; bless with CENJU4_BLESS_GOLDEN=1"));
    assert_eq!(
        got, want,
        "{file}: the span collector's exported metrics changed"
    );
}

#[test]
fn fig12_span_metrics_match_golden() {
    let (eng, _) = fig12_engine(true);
    let metrics = eng
        .observer::<SpanCollector>()
        .expect("collector attached")
        .metrics();
    check_metrics_golden("fig12_span_metrics.txt", &metrics.to_text());
    check_metrics_golden("fig12_span_metrics.json", &metrics.to_json());
}
