//! Per-layer work counts and the per-layer metric set every workload
//! reports in a traced run.
//!
//! The layers are the repository's crates. `engine` stands for the four
//! crates the event loop runs through (`des`, `protocol`, `network`,
//! `directory`): from outside, their host time can only be taken
//! together, around `Driver::pump` (minus the program's `next_step`) or
//! `Engine::run_pending`. Their work is counted one crate at a time from
//! `Engine::stats`, `Engine::net_stats` and a counting observer.

use crate::report::Metrics;
use crate::trace::Tracer;
use cenju4_des::SimTime;
use cenju4_directory::{MemState, NodeId};
use cenju4_protocol::{
    Addr, CacheState, Engine, MemOp, ModuleKind, Observer, PhaseKind, ProtoMsg, ReqKind, TxnId,
};
use std::collections::BTreeMap;

/// Counts every observer callback the engine makes, and directory
/// transitions separately. Attached only in traced runs.
#[derive(Default)]
pub struct CountingObserver {
    pub callbacks: u64,
    pub mem_transitions: u64,
}

impl Observer for CountingObserver {
    fn on_access(&mut self, _: SimTime, _: NodeId, _: MemOp, _: Addr, _: TxnId) {
        self.callbacks += 1;
    }
    fn on_send(&mut self, _: SimTime, _: NodeId, _: NodeId, _: &ProtoMsg) {
        self.callbacks += 1;
    }
    fn on_receive(&mut self, _: SimTime, _: NodeId, _: NodeId, _: &ProtoMsg) {
        self.callbacks += 1;
    }
    fn on_request_issued(&mut self, _: SimTime, _: NodeId, _: ReqKind, _: bool) {
        self.callbacks += 1;
    }
    fn on_request_deferred(&mut self, _: SimTime, _: NodeId, _: Addr, _: Option<usize>) {
        self.callbacks += 1;
    }
    fn on_invalidation(&mut self, _: SimTime, _: NodeId, _: Addr, _: u32) {
        self.callbacks += 1;
    }
    fn on_phase(&mut self, _: SimTime, _: NodeId, _: TxnId, _: PhaseKind) {
        self.callbacks += 1;
    }
    fn on_cache_transition(
        &mut self,
        _: SimTime,
        _: NodeId,
        _: Addr,
        _: CacheState,
        _: CacheState,
    ) {
        self.callbacks += 1;
    }
    fn on_mem_transition(&mut self, _: SimTime, _: NodeId, _: Addr, _: MemState, _: MemState) {
        self.callbacks += 1;
        self.mem_transitions += 1;
    }
    fn on_queue_depth(&mut self, _: SimTime, _: NodeId, _: ModuleKind, _: u64) {
        self.callbacks += 1;
    }
    fn on_complete(
        &mut self,
        _: SimTime,
        _: NodeId,
        _: TxnId,
        _: MemOp,
        _: Addr,
        _: bool,
        _: bool,
    ) {
        self.callbacks += 1;
    }
    fn on_marker(&mut self, _: SimTime, _: u64) {
        self.callbacks += 1;
    }
}

/// Engine work summed over the runs a traced workload measured.
#[derive(Clone, Debug, Default)]
pub struct EngineWork {
    /// Runs (points, simulations, walks, explorations) the counts cover.
    pub runs: u64,
    /// Engine dispatch steps.
    pub events: u64,
    /// Host time spent dispatching them.
    pub engine_ns: u64,
    pub completed: u64,
    pub hits: u64,
    pub requests: u64,
    pub queued: u64,
    pub forwards: u64,
    pub invalidations: u64,
    pub invalidation_copies: u64,
    pub writebacks: u64,
    pub observer_callbacks: u64,
    pub mem_transitions: u64,
    pub unicasts: u64,
    pub multicasts: u64,
    pub multicast_copies: u64,
    pub gather_replies: u64,
    pub gather_absorbed: u64,
    pub delivered: u64,
    /// Simulated port wait, summed (mean × samples) and counted.
    pub port_wait_sum_ns: f64,
    pub port_wait_samples: u64,
    pub next_step_calls: u64,
    pub next_step_ns: u64,
}

impl EngineWork {
    /// Adds one finished run's counters. `events` is passed separately:
    /// the checker's engines count dispatch steps in their own way.
    pub fn absorb(&mut self, eng: &Engine, events: u64) {
        let s = eng.stats();
        let n = eng.net_stats();
        self.runs += 1;
        self.events += events;
        self.completed += s.completed.get();
        self.hits += s.hits.get();
        self.requests += s.requests.get();
        self.queued += s.queued_requests.get();
        self.forwards += s.forwards.get();
        self.invalidations += s.invalidations.get();
        self.invalidation_copies += s.invalidation_copies.get();
        self.writebacks += s.writebacks.get();
        self.unicasts += n.unicasts.get();
        self.multicasts += n.multicasts.get();
        self.multicast_copies += n.multicast_copies.get();
        self.gather_replies += n.gather_replies.get();
        self.gather_absorbed += n.gather_absorbed.get();
        self.delivered += n.delivered.get();
        self.port_wait_sum_ns += n.port_wait.mean() * n.port_wait.count() as f64;
        self.port_wait_samples += n.port_wait.count();
        if let Some(obs) = eng.observer::<CountingObserver>() {
            self.observer_callbacks += obs.callbacks;
            self.mem_transitions += obs.mem_transitions;
        }
    }

    fn per_run(&self, v: u64) -> f64 {
        v as f64 / self.runs.max(1) as f64
    }

    /// The engine-side counts of the layers file, as totals.
    pub fn totals(&self, m: &mut Metrics) {
        for (name, v) in [
            ("des.events", self.events),
            ("sim.accesses", self.completed),
            ("workloads.next_step_calls", self.next_step_calls),
            ("protocol.requests", self.requests),
            ("protocol.hits", self.hits),
            ("protocol.queued_requests", self.queued),
            ("protocol.forwards", self.forwards),
            ("protocol.invalidations", self.invalidations),
            ("protocol.invalidation_copies", self.invalidation_copies),
            ("protocol.writebacks", self.writebacks),
            ("protocol.observer_callbacks", self.observer_callbacks),
            ("directory.mem_transitions", self.mem_transitions),
            ("network.unicasts", self.unicasts),
            ("network.multicasts", self.multicasts),
            ("network.multicast_copies", self.multicast_copies),
            ("network.gather_replies", self.gather_replies),
            ("network.gather_absorbed", self.gather_absorbed),
            ("network.delivered", self.delivered),
        ] {
            m.push(name, v as f64, "count");
        }
        m.push(
            "workloads.next_step_ms",
            self.next_step_ns as f64 / 1e6,
            "ms",
        );
    }
}

/// Inputs to the per-layer metric set beyond the engine counts.
#[derive(Default)]
pub struct LayerInputs {
    /// Self time per layer over the operations the shares are taken of.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Share of a TCP round trip not spent in `Server::handle`, in %.
    pub transport_share_pct: f64,
    /// `cenju4-serve` queries that did not cost a simulation ÷ queries.
    pub serve_dedup_ratio: f64,
    /// Checker revisits pruned by the dedup table ÷ transitions.
    pub check_dedup_hit_ratio: f64,
    /// Traced versus untraced operation time, in %.
    pub trace_overhead_pct: f64,
}

/// The per-layer metrics, the same names on every workload; a layer a
/// workload does not reach reports 0 work and a 0% share.
pub fn per_layer(work: &EngineWork, inputs: &LayerInputs) -> Metrics {
    let mut m = Metrics::default();
    let total: u64 = inputs.self_ns.values().sum();
    let share = |layer: &str| {
        100.0 * inputs.self_ns.get(layer).copied().unwrap_or(0) as f64 / total.max(1) as f64
    };
    m.push("des.events_per_run", work.per_run(work.events), "count");
    m.push(
        "des.ns_per_event",
        work.engine_ns as f64 / work.events.max(1) as f64,
        "ns",
    );
    m.push("engine.share_pct", share("engine"), "%");
    m.push(
        "protocol.requests_per_run",
        work.per_run(work.requests),
        "count",
    );
    m.push(
        "protocol.hit_ratio",
        work.hits as f64 / work.completed.max(1) as f64,
        "ratio",
    );
    m.push(
        "protocol.queued_per_run",
        work.per_run(work.queued),
        "count",
    );
    m.push(
        "protocol.forwards_per_run",
        work.per_run(work.forwards),
        "count",
    );
    m.push(
        "protocol.invalidation_copies_per_run",
        work.per_run(work.invalidation_copies),
        "count",
    );
    m.push(
        "protocol.observer_callbacks_per_run",
        work.per_run(work.observer_callbacks),
        "count",
    );
    m.push(
        "directory.mem_transitions_per_run",
        work.per_run(work.mem_transitions),
        "count",
    );
    m.push(
        "network.delivered_per_run",
        work.per_run(work.delivered),
        "count",
    );
    m.push(
        "network.gather_combine_ratio",
        work.gather_absorbed as f64 / work.gather_replies.max(1) as f64,
        "ratio",
    );
    m.push(
        "network.port_wait_mean",
        work.port_wait_sum_ns / work.port_wait_samples.max(1) as f64,
        "sim_ns",
    );
    m.push(
        "workloads.next_step_calls_per_run",
        work.per_run(work.next_step_calls),
        "count",
    );
    m.push("workloads.share_pct", share("workloads"), "%");
    m.push("sim.share_pct", share("sim"), "%");
    m.push("serve.share_pct", share("serve"), "%");
    m.push("serve.transport_share_pct", inputs.transport_share_pct, "%");
    m.push("serve.dedup_ratio", inputs.serve_dedup_ratio, "ratio");
    m.push("check.share_pct", share("check"), "%");
    m.push(
        "check.dedup_hit_ratio",
        inputs.check_dedup_hit_ratio,
        "ratio",
    );
    m.push("bench.share_pct", share("bench"), "%");
    m.push("bench.trace_overhead_pct", inputs.trace_overhead_pct, "%");
    m
}

/// The per-layer metrics followed by everything else the layers file
/// holds: engine totals and per-span-name self times.
pub fn layers_file_metrics(per_layer: &Metrics, work: &EngineWork, tracer: &Tracer) -> Metrics {
    let mut m = per_layer.clone();
    work.totals(&mut m);
    for (name, st) in tracer.by_name() {
        m.push(format!("{name}.self_ms"), st.self_ns as f64 / 1e6, "ms");
    }
    m
}

/// `(traced − untraced) ÷ untraced`, in %.
pub fn overhead_pct(traced_ns: u64, untraced_ns: u64) -> f64 {
    100.0 * (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64
}
