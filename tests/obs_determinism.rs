//! Determinism guard for the observability pipeline under parallel
//! sweeps.
//!
//! A figure sweep may run on any worker count (`CENJU4_SWEEP_THREADS`);
//! the exported artifacts must not depend on it. Each sweep point builds
//! its own engine and collector, and results are slotted by point index,
//! so histogram bucket counts, percentile summaries, and the full span
//! *event order* must be bit-identical between a serial sweep and a
//! parallel one — and across repeated runs.

use cenju4::obs::chrome_trace_json;
use cenju4::prelude::*;
use cenju4_sim::sweep::sweep_on;

/// One traced sweep point: k sharers warmed with loads, then a store —
/// the fig10 scenario shape, parameterized.
fn traced_store_point(k: u16) -> Engine {
    let cfg = SystemConfig::builder(64).build().expect("valid node count");
    let sys = cfg.sys;
    let mut eng = Engine::new(&cfg);
    eng.add_observer(Box::new(SpanCollector::new(sys)));
    let a = Addr::new(NodeId::new(0), 1);
    for s in 1..=k {
        eng.issue(eng.now(), NodeId::new(s), MemOp::Load, a);
        eng.run();
    }
    eng.issue(eng.now(), NodeId::new(1), MemOp::Store, a);
    eng.run();
    eng
}

/// Everything the exporters consume, rendered deterministically.
fn artifacts(eng: &Engine) -> (String, String, Vec<(String, Vec<u64>)>) {
    let col = eng.observer::<SpanCollector>().unwrap();
    (
        col.event_fingerprint(),
        chrome_trace_json(col),
        col.metrics().bucket_fingerprint(),
    )
}

const KS: [u16; 4] = [2, 4, 8, 16];

#[test]
fn histograms_and_event_order_invariant_under_thread_count() {
    let serial = sweep_on(1, &KS, |&k| artifacts(&traced_store_point(k)));
    let parallel = sweep_on(4, &KS, |&k| artifacts(&traced_store_point(k)));
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s.0, p.0,
            "k={}: span event order depends on the sweep thread count",
            KS[i]
        );
        assert_eq!(
            s.1, p.1,
            "k={}: Chrome trace depends on the sweep thread count",
            KS[i]
        );
        assert_eq!(
            s.2, p.2,
            "k={}: histogram buckets depend on the sweep thread count",
            KS[i]
        );
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    for &k in &KS {
        let a = artifacts(&traced_store_point(k));
        let b = artifacts(&traced_store_point(k));
        assert_eq!(a, b, "k={k}: repeated run diverged");
    }
}
