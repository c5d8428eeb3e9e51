//! `check-explore` and `check-walks`: the protocol checker under its
//! controlled scheduler.
//!
//! An operation of `check-explore` is one reduced exhaustive exploration
//! (partial-order reduction and the state-fingerprint dedup table); an
//! operation of `check-walks` is one chunk of seeded random walks over
//! the lossy recovery configuration, which explores unreduced.

use crate::layers::{self, CountingObserver, EngineWork, LayerInputs};
use crate::report::{self, Clock, Metrics, Outcome, Samples};
use crate::trace::Tracer;
use crate::Run;
use cenju4_check::{
    explore_reduced, random_walks, run_one, CheckConfig, Exploration, ExploreLimits, OracleState,
};
use std::time::{Duration, Instant};

const LIMITS: ExploreLimits = ExploreLimits {
    max_steps: 10_000,
    max_schedules: 1_000_000,
    max_seconds: 120,
};

/// Explorer threads. With reduction armed the walk is sequential; two
/// keeps the load within two cores if it is not.
const THREADS: usize = 2;

/// The seed of the walk stream of chunk `chunk`.
fn walk_seed(seed: u64, chunk: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(chunk * 1_000_000)
}

/// 3 nodes x 1 block x 2 ops, MESI with queuing (2 x 2 x 2 in smoke).
/// One exploration takes ~0.1 s, so a run times about a hundred of them;
/// the 3 x 2 x 2 scenario takes ~0.7 s, and twenty samples a run left its
/// 90th percentile at the mercy of host noise.
fn explore_config(smoke: bool) -> CheckConfig {
    CheckConfig {
        nodes: if smoke { 2 } else { 3 },
        blocks: if smoke { 2 } else { 1 },
        ops_per_node: 2,
        ..CheckConfig::default()
    }
}

/// 3 nodes x 2 blocks x 2 ops (2 x 2 x 2 in smoke) with recovery armed
/// over a fabric that drops one message in ten, by the fault plan `seed`
/// draws.
fn walks_config(smoke: bool, seed: u64) -> CheckConfig {
    CheckConfig {
        nodes: if smoke { 2 } else { 3 },
        blocks: 2,
        ops_per_node: 2,
        recovery: true,
        drop_permille: 100,
        fault_seed: seed,
        ..CheckConfig::default()
    }
}

/// Drives `walks` seeded random walks through the benchmark's own copy of
/// the checker's step loop (the one `run_one` runs), timing the engine
/// calls and the oracle calls apart. The walks are the ones
/// `random_walks(cfg, seed, ..)` takes, walk `first` onwards.
#[allow(clippy::too_many_arguments)]
fn instrumented_walks(
    cfg: &CheckConfig,
    seed: u64,
    first: u64,
    walks: u64,
    op: u64,
    tr: &mut Tracer,
    work: &mut EngineWork,
) -> Result<(), String> {
    let root = tr.begin("bench.walks", op, None);
    let start = tr.now_ns();
    let (mut build_ns, mut engine_ns, mut oracle_ns) = (0u64, 0u64, 0u64);
    let (mut engine_calls, mut oracle_calls) = (0u64, 0u64);
    let issued = cfg.issued_ops();
    let mut result = Ok(());
    // One clock read per phase boundary: each reading closes one phase
    // and opens the next, so a step costs two reads, not four.
    let lap = |mark: &mut Instant, acc: &mut u64| {
        let now = Instant::now();
        *acc += (now - *mark).as_nanos() as u64;
        *mark = now;
    };
    for w in first..first + walks {
        let mut rng =
            cenju4_des::SplitMix64::new(seed.wrapping_add(w).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut mark = Instant::now();
        let mut eng = cfg.engine();
        eng.add_observer(Box::new(CountingObserver::default()));
        let mut oracle = OracleState::new(cfg);
        lap(&mut mark, &mut build_ns);
        let mut steps = 0u64;
        let violation = loop {
            // Engine phase: the pending set, the pick, and the event.
            engine_calls += 1;
            let pend = eng.pending_events();
            if pend.is_empty() {
                lap(&mut mark, &mut engine_ns);
                oracle_calls += 1;
                let v = oracle.check_quiescent(&eng, issued);
                lap(&mut mark, &mut oracle_ns);
                break v.map(|v| v.to_string());
            }
            if steps as usize >= LIMITS.max_steps {
                break Some(format!("no quiescence after {steps} steps"));
            }
            let ready: Vec<usize> = pend
                .iter()
                .enumerate()
                .filter(|(_, e)| e.ready)
                .map(|(i, _)| i)
                .collect();
            let picked = (rng.next_below(ready.len() as u64) as usize).min(ready.len() - 1);
            let notes = eng.run_pending(ready[picked]);
            lap(&mut mark, &mut engine_ns);
            let Some(notes) = notes else {
                break Some("ready event vanished".into());
            };
            steps += 1;
            oracle_calls += 1;
            let v = oracle
                .note(&notes, &eng)
                .or_else(|| oracle.check_step(&eng));
            lap(&mut mark, &mut oracle_ns);
            if let Some(v) = v {
                break Some(v.to_string());
            }
        };
        work.absorb(&eng, steps);
        if w == first {
            // The copy of the loop must take the library's schedule.
            let mut check_rng = cenju4_des::SplitMix64::new(
                seed.wrapping_add(w).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let lib = run_one(
                cfg,
                |arity| check_rng.next_below(arity as u64) as usize,
                LIMITS.max_steps,
            );
            if lib.steps as u64 != steps {
                result = Err(format!(
                    "instrumented walk {w} took {steps} steps, run_one took {}",
                    lib.steps
                ));
            }
        }
        if let Some(v) = violation {
            result = Err(format!("walk {w}: {v}"));
            break;
        }
    }
    work.engine_ns += engine_ns;
    tr.aggregate("check.engine_build", op, Some(root), start, walks, build_ns);
    tr.aggregate(
        "engine.dispatch",
        op,
        Some(root),
        start,
        engine_calls,
        engine_ns,
    );
    tr.aggregate(
        "check.oracles",
        op,
        Some(root),
        start,
        oracle_calls,
        oracle_ns,
    );
    tr.end(root);
    result
}

/// Pinned explored counts, checked on every repetition.
fn check_reduced(run: &Run, out: &mut Outcome, got: &cenju4_check::ReducedOutcome) {
    if !matches!(got.exploration, Exploration::AllGreen { schedules } if schedules == got.leaves) {
        out.gate_failures.push(format!(
            "exploration did not end all green: {:?}",
            got.exploration
        ));
    }
    run.check_pin(out, "unique_states", &got.unique_states.to_string());
    run.check_pin(out, "transitions", &got.transitions.to_string());
    run.check_pin(out, "leaves", &got.leaves.to_string());
}

pub fn explore(run: &Run) -> Outcome {
    let cfg = explore_config(run.smoke);
    // Set-up: validate the scenario and explore a 2-node one (2 x 2 x 3,
    // ~0.1 s; 2 x 1 x 2 in smoke), which warms the allocator and the code
    // paths the timed repetitions take.
    let warm = if run.smoke {
        CheckConfig { nodes: 2, ..cfg }
    } else {
        CheckConfig {
            nodes: 2,
            blocks: 2,
            ops_per_node: 3,
            ..cfg
        }
    };
    let mut clock = Clock::new();
    let (setup, _) = clock.repeat(|| {
        cfg.validate().expect("benchmark scenario is valid");
        explore_reduced(&warm, &LIMITS, THREADS)
    });

    let mut out = Outcome::default();
    let mut ops = Samples::default();
    let mut states_per_s = Vec::new();
    let mut tracer = Tracer::new(Instant::now(), 1);
    let mut work = EngineWork::default();
    let (mut traced_ns, mut untraced_ns) = (0u64, 0u64);
    let mut last;
    let window = Instant::now();
    let budget = Duration::from_secs_f64(run.seconds);
    let mut rep = 0u64;
    loop {
        let traced = run.trace && rep % 2 == 1;
        let (got, d, _) = clock.time(|| {
            if traced {
                let root = tracer.begin("bench.explore", rep, None);
                let got = tracer.span("check.explore_reduced", rep, Some(root), || {
                    explore_reduced(&cfg, &LIMITS, THREADS)
                });
                tracer.end(root);
                got
            } else {
                explore_reduced(&cfg, &LIMITS, THREADS)
            }
        });
        out.attempted += 1;
        if !matches!(got.exploration, Exploration::AllGreen { .. }) {
            out.failed += 1;
        }
        check_reduced(run, &mut out, &got);
        if traced {
            traced_ns += d.as_nanos() as u64;
            // The explorer cannot be entered; a side sample of walks over
            // the same scenario measures the engine work per schedule.
            if let Err(e) =
                instrumented_walks(&cfg, run.seed, rep * 100, 100, rep, &mut tracer, &mut work)
            {
                out.gate_failures.push(e);
            }
        } else {
            untraced_ns += d.as_nanos() as u64;
            ops.push(d);
            states_per_s.push(got.unique_states as f64 / d.as_secs_f64());
        }
        last = got;
        rep += 1;
        let paired = !run.trace || rep.is_multiple_of(2);
        if paired && window.elapsed() >= budget {
            break;
        }
    }
    let got = last;
    out.end_to_end = report::end_to_end(
        &setup,
        &ops,
        Duration::from_nanos(untraced_ns),
        report::peak_rss_mib("self"),
    );
    states_per_s.sort_by(f64::total_cmp);
    out.detail("check_states_per_s", states_per_s[states_per_s.len() / 2]);
    out.detail("unique_states", got.unique_states);
    out.detail("transitions", got.transitions);
    out.detail("leaves", got.leaves);
    out.detail("dedup_hits", got.dedup_hits);
    out.detail("sleep_skipped", got.sleep_skipped);
    out.detail("repetitions", ops.len());
    if run.trace {
        let inputs = LayerInputs {
            self_ns: tracer.layer_self_ns(&["bench.explore"]),
            check_dedup_hit_ratio: got.dedup_hits as f64 / got.transitions.max(1) as f64,
            trace_overhead_pct: layers::overhead_pct(traced_ns, untraced_ns),
            ..LayerInputs::default()
        };
        let per_layer = layers::per_layer(&work, &inputs);
        out.detail(
            "check_ns_per_transition",
            ops.quantile(0.5) / got.transitions.max(1) as f64,
        );
        run.write_trace(&mut out, &tracer, &per_layer, &work, Metrics::default());
        out.per_layer = Some(per_layer);
    }
    out
}

pub fn walks(run: &Run) -> Outcome {
    let chunk: u64 = if run.smoke { 200 } else { 4_000 };
    let mut clock = Clock::new();
    let (setup, _) = clock.repeat(|| {
        let seed = walk_seed(run.seed, u64::MAX);
        let cfg = walks_config(run.smoke, seed);
        cfg.validate().expect("benchmark scenario is valid");
        random_walks(&cfg, seed, 500, &LIMITS)
    });

    let mut out = Outcome::default();
    let mut ops = Samples::default();
    let mut tracer = Tracer::new(Instant::now(), 1);
    let mut work = EngineWork::default();
    let (mut traced_ns, mut untraced_ns) = (0u64, 0u64);
    let window = Instant::now();
    let budget = Duration::from_secs_f64(run.seconds);
    let mut n = 0u64;
    loop {
        let traced = run.trace && n % 2 == 1;
        // Each chunk draws its own fault plan and walk stream, so a run
        // averages over many plans rather than timing one.
        let seed = walk_seed(run.seed, n);
        let cfg = walks_config(run.smoke, seed);
        let (result, d, _) = clock.time(|| {
            if traced {
                instrumented_walks(&cfg, seed, 0, chunk, n, &mut tracer, &mut work)
            } else {
                match random_walks(&cfg, seed, chunk, &LIMITS) {
                    Exploration::AllGreen { schedules } if schedules == chunk => Ok(()),
                    other => Err(format!("walk chunk {n} (seed {seed}): {other:?}")),
                }
            }
        });
        out.attempted += 1;
        if let Err(e) = result {
            out.failed += 1;
            out.gate_failures.push(e);
        }
        if traced {
            traced_ns += d.as_nanos() as u64;
        } else {
            untraced_ns += d.as_nanos() as u64;
            ops.push(d);
        }
        n += 1;
        let paired = !run.trace || n.is_multiple_of(2);
        if paired && window.elapsed() >= budget {
            break;
        }
    }
    out.end_to_end = report::end_to_end(
        &setup,
        &ops,
        Duration::from_nanos(untraced_ns),
        report::peak_rss_mib("self"),
    );
    let walks_per_s = ops.len() as f64 * chunk as f64 / (untraced_ns as f64 / 1e9);
    out.detail("check_walks_per_s", walks_per_s);
    out.detail("walks_per_chunk", chunk);
    out.detail("chunks", ops.len());
    if run.trace {
        let inputs = LayerInputs {
            self_ns: tracer.layer_self_ns(&["bench.walks"]),
            trace_overhead_pct: layers::overhead_pct(traced_ns, untraced_ns),
            ..LayerInputs::default()
        };
        let per_layer = layers::per_layer(&work, &inputs);
        out.detail("check_walk_us", ops.quantile(0.5) / chunk as f64 / 1e3);
        run.write_trace(&mut out, &tracer, &per_layer, &work, Metrics::default());
        out.per_layer = Some(per_layer);
    }
    out
}
