//! Chrome `trace_event` export.
//!
//! Renders a [`SpanCollector`]'s spans as the JSON Object Format the
//! Chrome tracing UI and Perfetto understand: one *process* per node,
//! one *thread* lane per protocol module (master/home/slave), a `ph:"X"`
//! complete event per closed span, and `ph:"i"` instant events for the
//! phase milestones inside it. Timestamps are simulated nanoseconds
//! rendered as fractional microseconds (`ts`/`dur` are µs in the trace
//! format), so nothing is rounded away.

use crate::span::{event_module, SpanClass, SpanCollector};
use cenju4_protocol::ModuleKind;

/// The `tid` lane a module renders on within its node's process.
fn lane(module: ModuleKind) -> u32 {
    match module {
        ModuleKind::Master => 0,
        ModuleKind::Home => 1,
        ModuleKind::Slave => 2,
    }
}

/// Nanoseconds as a µs decimal string with no float rounding:
/// `2620 → "2.620"`.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Escapes a string for embedding in a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the collector's spans as a complete Chrome `trace_event`
/// JSON document (`{"traceEvents":[…]}`). Open it in `chrome://tracing`
/// or <https://ui.perfetto.dev>.
///
/// Every closed span becomes a `ph:"X"` complete event on the lane of
/// the module that owned it (accesses on the issuing node's master lane,
/// writebacks on the home's home lane); every phase event inside it
/// becomes a `ph:"i"` instant on the lane of the module that fired it.
/// Metadata events name the processes (`node N`) and lanes so the UI is
/// readable without a legend.
///
/// # Examples
///
/// ```
/// use cenju4_des::SimTime;
/// use cenju4_directory::NodeId;
/// use cenju4_obs::{chrome_trace_json, json, SpanCollector};
/// use cenju4_protocol::{Addr, Engine, MemOp, SystemConfig};
///
/// let cfg = SystemConfig::builder(16).build()?;
/// let mut eng = Engine::new(&cfg);
/// eng.add_observer(Box::new(SpanCollector::new(cfg.sys)));
/// eng.issue(SimTime::ZERO, NodeId::new(0), MemOp::Load, Addr::new(NodeId::new(1), 0));
/// eng.run();
/// let doc = chrome_trace_json(eng.observer::<SpanCollector>().unwrap());
/// let shape = json::validate_chrome_trace(&doc)?;
/// assert_eq!(shape.complete_spans, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn chrome_trace_json(col: &SpanCollector) -> String {
    let mut events: Vec<String> = Vec::new();

    // Name each process/lane that actually appears, in first-use order.
    let mut named: Vec<(u16, u32)> = Vec::new();
    let mut name_lane = |events: &mut Vec<String>, node: u16, tid: u32| {
        if named.contains(&(node, tid)) {
            return;
        }
        if !named.iter().any(|&(n, _)| n == node) {
            events.push(format!(
                r#"{{"ph":"M","name":"process_name","pid":{node},"tid":0,"args":{{"name":"node {node}"}}}}"#
            ));
        }
        named.push((node, tid));
        let lane_name = match tid {
            0 => "master",
            1 => "home",
            _ => "slave",
        };
        events.push(format!(
            r#"{{"ph":"M","name":"thread_name","pid":{node},"tid":{tid},"args":{{"name":"{lane_name}"}}}}"#
        ));
    };

    for span in col.spans() {
        let Some(closed) = span.closed else {
            continue; // leaked spans are the oracle's business, not the UI's
        };
        let class = span.class.unwrap_or(SpanClass::Hit);
        let (pid, tid) = match class {
            SpanClass::Writeback => (span.addr.home().index(), lane(ModuleKind::Home)),
            _ => (span.node.index(), lane(ModuleKind::Master)),
        };
        name_lane(&mut events, pid, tid);
        let ts = span.opened.as_ns();
        let dur = closed.as_ns() - ts;
        let txn = span
            .txn
            .map_or_else(|| "null".to_owned(), |t| t.to_string());
        events.push(format!(
            r#"{{"ph":"X","name":"{}","cat":"txn","pid":{pid},"tid":{tid},"ts":{},"dur":{},"args":{{"txn":{txn},"addr":"{}","retries":{}}}}}"#,
            esc(class.label()),
            us(ts),
            us(dur),
            esc(&span.addr.to_string()),
            span.retries,
        ));
        for ev in col.events(span) {
            let epid = ev.node.index();
            let etid = lane(event_module(ev.label));
            name_lane(&mut events, epid, etid);
            events.push(format!(
                r#"{{"ph":"i","name":"{}","cat":"phase","pid":{epid},"tid":{etid},"ts":{},"s":"t","args":{{"txn":{txn},"detail":{}}}}}"#,
                esc(ev.label),
                us(ev.at.as_ns()),
                ev.detail,
            ));
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(ev);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use cenju4_des::SimTime;
    use cenju4_directory::NodeId;
    use cenju4_protocol::{Addr, Engine, MemOp, SystemConfig};

    fn traced_engine() -> Engine {
        let cfg = SystemConfig::builder(16).build().unwrap();
        let mut eng = Engine::new(&cfg);
        eng.add_observer(Box::new(SpanCollector::new(cfg.sys)));
        eng
    }

    #[test]
    fn us_formatting_is_exact() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(2_620), "2.620");
        assert_eq!(us(1_000_001), "1000.001");
    }

    #[test]
    fn one_complete_span_per_transaction() {
        let mut eng = traced_engine();
        let a = Addr::new(NodeId::new(1), 0);
        eng.issue(SimTime::ZERO, NodeId::new(0), MemOp::Load, a);
        eng.run();
        eng.issue(eng.now(), NodeId::new(2), MemOp::Store, a);
        eng.run();
        let doc = chrome_trace_json(eng.observer::<SpanCollector>().unwrap());
        let shape = json::validate_chrome_trace(&doc).unwrap();
        assert_eq!(shape.complete_spans, 2);
        assert!(shape.instants > 0, "store over a sharer must emit phases");
        // Lanes are named.
        let parsed = json::parse(&doc).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.iter().any(|e| {
            e.get("ph").unwrap().as_str() == Some("M")
                && e.get("name").unwrap().as_str() == Some("process_name")
        }));
    }

    #[test]
    fn repeated_export_is_identical() {
        let mut eng = traced_engine();
        eng.issue(
            SimTime::ZERO,
            NodeId::new(3),
            MemOp::Store,
            Addr::new(NodeId::new(0), 7),
        );
        eng.run();
        let col = eng.observer::<SpanCollector>().unwrap();
        assert_eq!(chrome_trace_json(col), chrome_trace_json(col));
    }
}
