//! Smoke test for the observability pipeline, run by the `obs-smoke`
//! CI tier.
//!
//! Replays the fig10 and fig12 golden scenarios with span tracing,
//! validates the exported Chrome `trace_event` JSON against the format's
//! shape (every event has a `ph`; every `"X"` complete event carries
//! `name`/`pid`/`tid`/`ts`/`dur`), asserts the span-leak oracle (every
//! opened span closed) and that every issued access produced a complete
//! span, and checks the metrics dump round-trips through the JSON
//! parser. `--trace-out`/`--metrics-out` write the fig12 artifacts for
//! inspection.
//!
//! Run with: `cargo run --release -p cenju4-bench --bin obs_smoke`

use cenju4::obs::json::validate_chrome_trace;
use cenju4::obs::{chrome_trace_json, json};
use cenju4_bench::traced::{fig10_run, fig12_run, TracedRun};
use cenju4_bench::FigArgs;
use cenju4_check::outln;

fn check(name: &str, run: &TracedRun) {
    let col = run.collector();
    assert_eq!(
        col.open_span_count(),
        0,
        "{name}: span leak — a transaction opened a span and never closed it"
    );
    let completed = col.completed_span_count() as u64;
    assert!(
        completed >= run.issued,
        "{name}: {completed} complete spans for {} issued accesses",
        run.issued
    );
    let doc = chrome_trace_json(col);
    let shape =
        validate_chrome_trace(&doc).unwrap_or_else(|e| panic!("{name}: invalid Chrome trace: {e}"));
    assert!(
        shape.complete_spans as u64 >= run.issued,
        "{name}: trace has {} X events for {} issued accesses",
        shape.complete_spans,
        run.issued
    );
    let metrics = json::parse(&col.metrics().to_json())
        .unwrap_or_else(|e| panic!("{name}: metrics JSON does not parse: {e}"));
    let closed = metrics
        .get("counters")
        .and_then(|c| c.get("span.closed"))
        .and_then(json::Json::as_u64)
        .unwrap_or(0);
    assert_eq!(
        closed, completed,
        "{name}: span.closed counter disagrees with the collector"
    );
    outln!(
        "{name}: ok — {} spans, {} trace events ({} complete, {} instants)",
        completed,
        shape.events,
        shape.complete_spans,
        shape.instants
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let obs = FigArgs::from_env(None, true);

    let f10 = fig10_run();
    check("fig10", &f10);

    let f12 = fig12_run();
    check("fig12", &f12);

    // Percentiles are a pure function of the deterministic schedule.
    let again = fig12_run();
    for class in ["hit", "load-miss", "store-miss", "upgrade"] {
        assert_eq!(
            f12.collector().metrics().latency_summary(class),
            again.collector().metrics().latency_summary(class),
            "{class}: percentiles differ across identical runs"
        );
    }
    outln!("fig12 repeat: percentiles identical");

    obs.write(f12.collector())?;
    outln!("obs-smoke: all checks passed");
    Ok(())
}
