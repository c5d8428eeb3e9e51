//! `dsm-gather` and `dsm-migratory`: regenerate a slice of the paper's
//! figures, one simulated point at a time.
//!
//! A point is `KernelProgram::build` + `Driver::new` + the run to
//! quiescence, on a fresh engine. One pass runs every point of the
//! workload's list in a seeded order; a run repeats passes until the
//! measured window is spent. The seed only permutes the order, so every
//! seed does the same work and the result digest is one pinned value.

use crate::layers::{self, CountingObserver, EngineWork, LayerInputs};
use crate::report::{self, Clock, Digest, Metrics, Outcome, Samples};
use crate::trace::Tracer;
use crate::Run;
use cenju4_des::SplitMix64;
use cenju4_sim::{Driver, Program, Step, SystemConfig};
use cenju4_workloads::{AppKind, KernelProgram, Variant};
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One simulated configuration.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    pub app: AppKind,
    pub variant: Variant,
    pub mapping: bool,
    pub nodes: u16,
    pub scale: f64,
}

impl Point {
    fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}n/x{}",
            self.app,
            self.variant,
            if self.mapping { "map" } else { "nomap" },
            self.nodes,
            self.scale
        )
    }
}

/// CG's whole-vector reads: remote read-miss bursts, and every store a
/// machine-wide multicast invalidation whose acks the switches combine.
pub fn gather_points(smoke: bool) -> (Vec<Point>, Point) {
    let (nodes, scale): (&[u16], f64) = if smoke {
        (&[16, 32], 0.05)
    } else {
        (&[32, 64, 128], 0.25)
    };
    let mut pts = Vec::new();
    for variant in [Variant::Dsm1, Variant::Dsm2] {
        for &n in nodes {
            pts.push(Point {
                app: AppKind::Cg,
                variant,
                mapping: true,
                nodes: n,
                scale,
            });
        }
    }
    // Set-up runs the largest point, so the heap reaches its peak before
    // the seeded passes and peak memory does not depend on their order.
    let warmup = pts[pts.len() - 1];
    (pts, warmup)
}

/// Naive grid solvers and FFT: stores migrate ownership, so the traffic
/// is forwards to dirty owners, requests queued at home, and narrow
/// invalidations.
pub fn migratory_points(smoke: bool) -> (Vec<Point>, Point) {
    let (nodes, scale): (&[u16], f64) = if smoke {
        (&[16], 0.1)
    } else {
        (&[16, 64, 128], 1.0)
    };
    let mut pts = Vec::new();
    for app in [AppKind::Bt, AppKind::Sp, AppKind::Ft] {
        for &n in nodes {
            for mapping in [true, false] {
                pts.push(Point {
                    app,
                    variant: Variant::Dsm1,
                    mapping,
                    nodes: n,
                    scale,
                });
            }
        }
    }
    // The largest point, as for `gather_points`.
    let warmup = pts[pts.len() - 1];
    (pts, warmup)
}

/// `next_step` calls counted by [`TimedProgram`], and the time of the
/// sampled ones.
#[derive(Clone, Copy, Default)]
struct NextStepTally {
    calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl NextStepTally {
    /// Estimated time of all calls: the sampled calls' mean, less the
    /// clock's own cost, times the call count.
    fn estimated_ns(&self) -> u64 {
        let per_call = self.sampled_ns as f64 / self.sampled.max(1) as f64 - clock_cost_ns();
        (per_call.max(0.0) * self.calls as f64) as u64
    }
}

/// A `next_step` call costs a few nanoseconds, less than reading the
/// clock, so only one call in `SAMPLE_EVERY` is timed.
const SAMPLE_EVERY: u64 = 16;

/// The median time of an empty timed region: what reading the clock
/// twice adds to every timed call.
fn clock_cost_ns() -> f64 {
    static COST: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *COST.get_or_init(|| {
        let samples = Samples(
            (0..1001)
                .map(|_| Instant::now().elapsed().as_nanos() as u64)
                .collect(),
        );
        samples.quantile(0.5)
    })
}

/// Counts every `next_step` call of the program it wraps and times a
/// sample of them.
struct TimedProgram {
    inner: KernelProgram,
    tally: Rc<Cell<NextStepTally>>,
}

impl Program for TimedProgram {
    fn next_step(&mut self, node: cenju4_directory::NodeId) -> Option<Step> {
        let mut tally = self.tally.get();
        tally.calls += 1;
        let step = if tally.calls.is_multiple_of(SAMPLE_EVERY) {
            let t = Instant::now();
            let step = self.inner.next_step(node);
            tally.sampled_ns += t.elapsed().as_nanos() as u64;
            tally.sampled += 1;
            step
        } else {
            self.inner.next_step(node)
        };
        self.tally.set(tally);
        step
    }
}

fn config(p: &Point) -> SystemConfig {
    SystemConfig::builder(p.nodes)
        .build()
        .expect("benchmark points use valid node counts")
}

/// The digest of one finished point: its label, the engine and fabric
/// counters, and the run report.
fn point_digest<P: Program>(p: &Point, d: &Driver<P>) -> String {
    let eng = d.engine();
    format!(
        "{}|{:?}|{:?}|{}",
        p.label(),
        eng.stats(),
        eng.net_stats(),
        eng.steps()
    )
}

fn finish_digest(head: String, report: &cenju4_sim::RunReport) -> String {
    let mut d = Digest::default();
    d.add(&head);
    d.add(&format!("{report:?}"));
    d.hex()
}

/// Runs one point untraced and returns its digest.
fn run_point(p: &Point) -> String {
    let cfg = config(p);
    let prog = KernelProgram::build(p.app, p.variant, p.mapping, &cfg, p.scale);
    let mut d = Driver::new(&cfg, prog);
    d.start();
    while d.pump() {}
    let head = point_digest(p, &d);
    finish_digest(head, &d.finish())
}

/// Runs one point with a span around every layer call.
pub fn run_point_traced(p: &Point, op: u64, tr: &mut Tracer, work: &mut EngineWork) -> String {
    let root = tr.begin("bench.point", op, None);
    let cfg = tr.span("sim.config", op, Some(root), || config(p));
    let inner = tr.span("workloads.build", op, Some(root), || {
        KernelProgram::build(p.app, p.variant, p.mapping, &cfg, p.scale)
    });
    let tally = Rc::new(Cell::new(NextStepTally::default()));
    let prog = TimedProgram {
        inner,
        tally: Rc::clone(&tally),
    };
    let mut d = tr.span("sim.driver_new", op, Some(root), || Driver::new(&cfg, prog));
    d.engine_mut()
        .add_observer(Box::new(CountingObserver::default()));
    // `start` primes every node's program; it belongs with the pump loop.
    let loop_start = tr.now_ns();
    let t = Instant::now();
    d.start();
    let mut pumps = 1u64;
    while d.pump() {
        pumps += 1;
    }
    let loop_ns = t.elapsed().as_nanos() as u64;
    let pump = tr.aggregate("engine.pump", op, Some(root), loop_start, pumps, loop_ns);
    let tally = tally.get();
    let (ns_calls, ns_ns) = (tally.calls, tally.estimated_ns());
    tr.aggregate(
        "workloads.next_step",
        op,
        Some(pump),
        loop_start,
        ns_calls,
        ns_ns,
    );
    work.absorb(d.engine(), d.engine().steps());
    work.engine_ns += loop_ns.saturating_sub(ns_ns);
    work.next_step_calls += ns_calls;
    work.next_step_ns += ns_ns;
    let head = point_digest(p, &d);
    let report = tr.span("sim.finish", op, Some(root), || d.finish());
    let digest = finish_digest(head, &report);
    tr.end(root);
    digest
}

/// The digest of a whole pass: every point's digest, in label order, so
/// the value does not depend on the seeded order.
fn pass_digest(by_label: &HashMap<String, String>) -> String {
    let mut labels: Vec<&String> = by_label.keys().collect();
    labels.sort();
    let mut d = Digest::default();
    for l in labels {
        d.add(l);
        d.add(&by_label[l]);
    }
    d.hex()
}

pub fn run(run: &Run, points: Vec<Point>, warmup: Point) -> Outcome {
    let mut rng = SplitMix64::new(run.seed);
    let mut order = points;
    report::shuffle(&mut order, &mut rng);

    let mut clock = Clock::new();
    let (setup, _) = clock.repeat(|| run_point(&warmup));

    let mut out = Outcome::default();
    let mut ops = Samples::default();
    let mut wall = Samples::default();
    let mut first: HashMap<String, String> = HashMap::new();
    let mut pass_ns: Vec<u64> = Vec::new();
    let mut traced_ns = 0u64;
    let mut tracer = Tracer::new(Instant::now(), 1);
    let mut work = EngineWork::default();
    let window = Instant::now();
    let budget = Duration::from_secs_f64(run.seconds);
    let mut pass = 0u64;
    // Whole passes only, so every point is weighted equally. A traced run
    // alternates untraced and traced passes and stops after a pair.
    loop {
        let traced = run.trace && pass % 2 == 1;
        let mut this_pass = Duration::ZERO;
        for (i, p) in order.iter().enumerate() {
            let op = pass * order.len() as u64 + i as u64;
            let (digest, d, w) = clock.time(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    if traced {
                        run_point_traced(p, op, &mut tracer, &mut work)
                    } else {
                        run_point(p)
                    }
                }))
            });
            out.attempted += 1;
            let Ok(digest) = digest else {
                out.failed += 1;
                out.gate_failures
                    .push(format!("point {} panicked", p.label()));
                continue;
            };
            this_pass += d;
            if !traced {
                ops.push(d);
                wall.push(w);
            }
            let label = p.label();
            match first.get(&label) {
                None => {
                    first.insert(label, digest);
                }
                Some(prev) if *prev != digest => out.gate_failures.push(format!(
                    "point {label}: digest {digest} differs from {prev} of an earlier pass"
                )),
                Some(_) => {}
            }
        }
        let ns = this_pass.as_nanos() as u64;
        if traced {
            traced_ns += ns;
        } else {
            pass_ns.push(ns);
        }
        pass += 1;
        let paired = !run.trace || pass.is_multiple_of(2);
        if paired && window.elapsed() >= budget {
            break;
        }
    }

    let digest = pass_digest(&first);
    run.check_pin(&mut out, "digest", &digest);
    let untraced_ns: u64 = pass_ns.iter().sum();
    out.end_to_end = report::end_to_end(
        &setup,
        &ops,
        Duration::from_nanos(untraced_ns),
        report::peak_rss_mib("self"),
    );
    let passes = Samples(pass_ns);
    out.detail("digest", format!("\"{digest}\""));
    out.detail("points_per_pass", order.len());
    out.detail("passes", passes.len());
    out.detail("sim_pass_s", passes.quantile(0.5) / 1e9);
    out.detail("sim_pass_q1_s", passes.quantile(0.25) / 1e9);
    out.detail("sim_pass_q3_s", passes.quantile(0.75) / 1e9);
    out.detail("wall_op_p50_ms", wall.quantile(0.5) / 1e6);

    if run.trace {
        let inputs = LayerInputs {
            self_ns: tracer.layer_self_ns(&["bench.point"]),
            trace_overhead_pct: layers::overhead_pct(traced_ns, untraced_ns),
            ..LayerInputs::default()
        };
        let per_layer = layers::per_layer(&work, &inputs);
        run.write_trace(&mut out, &tracer, &per_layer, &work, Metrics::default());
        out.per_layer = Some(per_layer);
    }
    out
}
