//! Traced replays of the paper-figure scenarios, for `--trace-out` /
//! `--metrics-out` and the `obs-smoke` CI tier.
//!
//! The figure binaries measure with bare engines (observability adds
//! nothing to a latency probe); when the user asks for artifacts, these
//! helpers re-run the *golden* fig10/fig12 scenarios — the exact access
//! sequences pinned byte-for-byte by `tests/golden_hotpath.rs` — with a
//! [`SpanCollector`] attached, so the exported trace describes the same
//! run the repository's bit-identity guard protects.

use cenju4::prelude::*;

/// A traced engine after running a scenario, plus how many accesses the
/// scenario issued — every one of them must have produced a complete
/// span.
pub struct TracedRun {
    /// The quiescent engine, collector still attached.
    pub eng: Engine,
    /// Accesses issued by the scenario.
    pub issued: u64,
}

impl TracedRun {
    /// The attached collector.
    pub fn collector(&self) -> &SpanCollector {
        self.eng
            .observer::<SpanCollector>()
            .expect("traced run always attaches a SpanCollector")
    }
}

fn traced_engine(nodes: u16) -> Engine {
    let cfg = SystemConfig::builder(nodes)
        .build()
        .expect("valid node count");
    let sys = cfg.sys;
    let mut eng = Engine::new(&cfg);
    eng.add_observer(Box::new(SpanCollector::new(sys)));
    eng
}

fn access(eng: &mut Engine, n: u16, op: MemOp, a: Addr) {
    eng.issue(eng.now(), NodeId::new(n), op, a);
    eng.run();
}

/// The Figure 10 golden scenario (16 nodes: four sharers warmed by
/// loads, then a store from a sharer), traced.
pub fn fig10_run() -> TracedRun {
    let mut eng = traced_engine(16);
    let a = Addr::new(NodeId::new(0), 1);
    for s in 1..=4 {
        access(&mut eng, s, MemOp::Load, a);
    }
    access(&mut eng, 1, MemOp::Store, a);
    TracedRun { eng, issued: 5 }
}

/// The Figure 12 golden scenario (64 nodes, seeded mixed workload of 200
/// loads/stores over eight blocks on two homes), traced.
pub fn fig12_run() -> TracedRun {
    let mut eng = traced_engine(64);
    let mut rng = SplitMix64::new(0xF1612);
    let blocks: Vec<Addr> = (0..8)
        .map(|b| Addr::new(NodeId::new((b % 2) as u16), 1 + b / 2))
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
    TracedRun { eng, issued: 200 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenju4::obs::json::validate_chrome_trace;

    #[test]
    fn fig10_every_access_has_a_complete_span() {
        let run = fig10_run();
        let col = run.collector();
        assert_eq!(col.open_span_count(), 0);
        assert!(col.completed_span_count() as u64 >= run.issued);
        let shape = validate_chrome_trace(&chrome_trace_json(col)).unwrap();
        assert!(shape.complete_spans as u64 >= run.issued);
    }

    #[test]
    fn fig12_every_access_has_a_complete_span() {
        let run = fig12_run();
        let col = run.collector();
        assert_eq!(col.open_span_count(), 0);
        assert!(col.completed_span_count() as u64 >= run.issued);
        let shape = validate_chrome_trace(&chrome_trace_json(col)).unwrap();
        assert!(shape.complete_spans as u64 >= run.issued);
        // The mixed workload exercises misses, upgrades and writebacks.
        let m = col.metrics();
        assert!(m.latency_summary("load-miss").is_some());
        assert!(m.latency_summary("hit").is_some());
    }

    #[test]
    fn repeated_runs_export_identical_percentiles() {
        let a = fig12_run();
        let b = fig12_run();
        for class in ["hit", "load-miss", "store-miss", "upgrade"] {
            assert_eq!(
                a.collector().metrics().latency_summary(class),
                b.collector().metrics().latency_summary(class),
                "{class} percentiles must be identical across repeated runs"
            );
        }
        assert_eq!(
            a.collector().event_fingerprint(),
            b.collector().event_fingerprint()
        );
    }
}
