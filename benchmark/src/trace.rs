//! Wall-clock spans recorded from the benchmark's own code around each
//! call into a layer, kept in memory and written once at the end.
//!
//! A span's layer is the prefix of its name (`sim.driver_new` belongs to
//! `sim`). Calls made once per engine event (`Driver::pump`,
//! `Program::next_step`) are not individual spans: they are folded into
//! one aggregate span per parent that carries a call count and the summed
//! time, so a trace stays bounded however many events a point runs.
//! Self time is a span's time minus its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span (or an aggregate of per-event calls).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The point, request or exploration this span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub tid: u32,
    pub start_ns: u64,
    /// Time inside the span (for an aggregate: the summed call time).
    pub busy_ns: u64,
    /// 1 for a plain span; the call count for an aggregate.
    pub calls: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            epoch,
            tid,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            tid: self.tid,
            start_ns,
            busy_ns: 0,
            calls: 1,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, idx: usize) {
        let now = self.now_ns();
        let s = &mut self.spans[idx];
        s.busy_ns = now.saturating_sub(s.start_ns);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.begin(name, op, parent);
        let v = f();
        self.end(idx);
        v
    }

    /// Records an aggregate of `calls` per-event calls totalling
    /// `busy_ns`, the first of which started at `start_ns`.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        calls: u64,
        busy_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            tid: self.tid,
            start_ns,
            busy_ns,
            calls,
        });
        self.spans.len() - 1
    }

    /// Moves another thread's spans in, keeping parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span (time minus the children's time).
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.busy_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.busy_ns.saturating_sub(c))
            .collect()
    }

    /// The root span each span descends from.
    fn roots(&self) -> Vec<usize> {
        let mut root: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are always recorded before their children.
            root.push(s.parent.map_or(i, |p| root[p]));
        }
        root
    }

    /// Self time per layer over the subtrees of roots named in `roots`.
    pub fn layer_self_ns(&self, roots: &[&str]) -> BTreeMap<&'static str, u64> {
        let selfs = self.self_ns();
        let root_of = self.roots();
        let mut by_layer = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if roots.contains(&self.spans[root_of[i]].name) {
                *by_layer.entry(s.layer()).or_insert(0) += selfs[i];
            }
        }
        by_layer
    }

    /// Per span name: calls, total time and self time.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let selfs = self.self_ns();
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.spans += 1;
            e.calls += s.calls;
            e.total_ns += s.busy_ns;
            e.self_ns += own;
        }
        out
    }

    /// Total time of the root spans named `name`.
    pub fn root_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| s.busy_ns)
            .sum()
    }

    /// The spans as a Chrome `trace_event` document. An aggregate is drawn
    /// at its first call's start with its summed duration.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{},\"op\":{},\"calls\":{}}}}}",
                s.name,
                s.layer(),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.busy_ns as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
                s.op,
                s.calls
            );
        }
        out.push_str("]}");
        out
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct NameStats {
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Writes `<dir>/<workload>.trace.json` and `<dir>/<workload>.layers.json`
/// and checks the trace's shape with the repository's own validator.
pub fn write_files(
    dir: &Path,
    workload: &str,
    tracer: &Tracer,
    layers: &crate::report::Metrics,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let chrome = tracer.chrome_json();
    let shape = cenju4_obs::json::validate_chrome_trace(&chrome)?;
    if shape.complete_spans != tracer.spans.len() {
        return Err(format!(
            "trace holds {} spans, the validator counted {}",
            tracer.spans.len(),
            shape.complete_spans
        ));
    }
    let mut spans = String::new();
    for (i, (name, st)) in tracer.by_name().iter().enumerate() {
        if i > 0 {
            spans.push(',');
        }
        let _ = write!(
            spans,
            "\"{name}\":{{\"spans\":{},\"calls\":{},\"total_ms\":{},\"self_ms\":{}}}",
            st.spans,
            st.calls,
            st.total_ns as f64 / 1e6,
            st.self_ns as f64 / 1e6
        );
    }
    let doc = format!(
        "{{\"workload\":\"{workload}\",\"host_cores\":{},\"metrics\":{},\"spans\":{{{spans}}}}}\n",
        crate::report::host_cores(),
        layers.to_json()
    );
    let write = |name: String, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(format!("{workload}.trace.json"), &chrome)?;
    write(format!("{workload}.layers.json"), &doc)
}
