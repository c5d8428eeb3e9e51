//! Checkpoint/resume property tests at both levels a run can be
//! interrupted.
//!
//! Engine level: forking an uncontrolled (time-ordered) engine at an
//! arbitrary dispatch-step boundary and finishing the fork must be
//! invisible — the fork's full protocol trace and counter fingerprint
//! are byte-identical to an uninterrupted run's, and the original is
//! undisturbed. The workloads are the two golden-pinned shapes from
//! `golden_hotpath.rs`: the Figure 10 sharer-warmup-then-store and the
//! Figure 12 seeded 200-access mix on 64 nodes. Cut points are chosen
//! by a seeded RNG — both *between* accesses (quiescent) and *mid-flight*
//! (a bounded number of dispatch steps into an access), which is the
//! interesting case: the fork copies a half-processed request.
//!
//! Driver level: the service's checkpoint is a run's step count, and
//! [`Driver::resume`] rebuilds the run by replaying a fresh driver to
//! it. Resumed at any seeded cut, a kernel run finishes with the
//! uninterrupted run's report and counters.

use cenju4::prelude::*;
use cenju4::workloads::KernelProgram;

fn node(n: u16) -> NodeId {
    NodeId::new(n)
}

/// A replayable access script plus the trace blocks worth dumping.
struct Script {
    nodes: u16,
    accesses: Vec<(u16, MemOp, Addr)>,
    dump: Vec<Addr>,
}

/// Figure 10 shape: four sharers warmed by loads, then a store.
fn fig10() -> Script {
    let a = Addr::new(node(0), 1);
    let mut accesses: Vec<(u16, MemOp, Addr)> = (1..=4).map(|s| (s, MemOp::Load, a)).collect();
    accesses.push((1, MemOp::Store, a));
    Script {
        nodes: 16,
        accesses,
        dump: vec![a],
    }
}

/// Figure 12 shape: a seeded mixed workload across eight blocks.
fn fig12() -> Script {
    let mut rng = SplitMix64::new(0xF1612);
    let blocks: Vec<Addr> = (0..8)
        .map(|b| Addr::new(node((b % 2) as u16), 1 + b / 2))
        .collect();
    let accesses = (0..200)
        .map(|_| {
            let n = rng.next_below(64) as u16;
            let op = if rng.next_below(3) == 0 {
                MemOp::Store
            } else {
                MemOp::Load
            };
            (n, op, blocks[rng.next_below(8) as usize])
        })
        .collect();
    Script {
        nodes: 64,
        accesses,
        dump: vec![blocks[0], blocks[5]],
    }
}

fn engine(nodes: u16) -> Engine {
    let mut eng = Engine::new(&SystemConfig::builder(nodes).build().expect("valid nodes"));
    eng.enable_trace(16384);
    eng
}

/// The counters most sensitive to a resume that drifted.
fn stats_fingerprint(eng: &Engine) -> String {
    let s = eng.stats();
    let n = eng.net_stats();
    format!(
        "completed={} hits={} requests={} invalidations={} forwards={} writebacks={} \
         unicasts={} multicasts={} delivered={} steps={} now={}\n",
        s.completed.get(),
        s.hits.get(),
        s.requests.get(),
        s.invalidations.get(),
        s.forwards.get(),
        s.writebacks.get(),
        n.unicasts.get(),
        n.multicasts.get(),
        n.delivered.get(),
        eng.steps(),
        eng.now().as_ns(),
    )
}

/// Trace dumps plus the counter fingerprint.
fn fingerprint(eng: &Engine, script: &Script) -> String {
    let mut out = String::new();
    for a in &script.dump {
        out.push_str(&eng.trace().dump_block(*a));
    }
    out.push_str(&stats_fingerprint(eng));
    out
}

/// Drives `accesses` in order, each to quiescence.
fn drive(eng: &mut Engine, accesses: &[(u16, MemOp, Addr)]) {
    for &(n, op, a) in accesses {
        eng.issue(eng.now(), node(n), op, a);
        eng.run();
    }
}

/// Forks `eng`, which must have only built-in observers.
fn fork(eng: &Engine) -> Engine {
    eng.fork().expect("built-in observers fork")
}

/// The uninterrupted run: every access driven to quiescence in order.
fn reference(script: &Script) -> String {
    let mut eng = engine(script.nodes);
    drive(&mut eng, &script.accesses);
    fingerprint(&eng, script)
}

/// Runs the script but forks after `cut` whole accesses plus
/// `mid_steps` dispatch steps into the next one, then finishes the
/// original and the fork alike. Returns both fingerprints, original
/// first.
fn interrupted(script: &Script, cut: usize, mid_steps: u64) -> (String, String) {
    let mut eng = engine(script.nodes);
    drive(&mut eng, &script.accesses[..cut]);
    let rest = if cut < script.accesses.len() {
        let (n, op, a) = script.accesses[cut];
        eng.issue(eng.now(), node(n), op, a);
        let mut notes = Vec::new();
        for _ in 0..mid_steps {
            if !eng.run_next(&mut notes) {
                break; // quiescent early; fork there instead
            }
        }
        &script.accesses[cut + 1..]
    } else {
        &[]
    };
    let mut forked = fork(&eng);
    assert_eq!(forked.steps(), eng.steps(), "fork pins the exact boundary");
    let finish = |e: &mut Engine| {
        // Finish the in-flight access, then the rest of the script.
        e.run();
        drive(e, rest);
        fingerprint(e, script)
    };
    (finish(&mut eng), finish(&mut forked))
}

fn check_script(script: &Script, trials: usize, seed: u64) {
    let want = reference(script);
    let mut rng = SplitMix64::new(seed);
    for t in 0..trials {
        let cut = rng.next_below(script.accesses.len() as u64 + 1) as usize;
        let mid = rng.next_below(40);
        let (original, forked) = interrupted(script, cut, mid);
        let at = format!("trial {t}: cut after {cut} accesses + {mid} steps");
        assert_eq!(forked, want, "fork diverged ({at})");
        assert_eq!(original, want, "forking disturbed the original ({at})");
    }
}

#[test]
fn fig10_resume_is_bit_identical_at_random_boundaries() {
    check_script(&fig10(), 8, 0x51A9_0001);
}

#[test]
fn fig12_resume_is_bit_identical_at_random_boundaries() {
    check_script(&fig12(), 6, 0x51A9_0002);
}

/// Degenerate boundaries: a fork before anything ran, and one at full
/// quiescence after the last access.
#[test]
fn edge_boundaries_round_trip() {
    for script in [fig10(), fig12()] {
        let want = reference(&script);
        let (_, forked) = interrupted(&script, 0, 0);
        assert_eq!(forked, want, "fork of a fresh engine");
        let end = script.accesses.len();
        let (_, forked) = interrupted(&script, end, 0);
        assert_eq!(forked, want, "fork at the quiescent end");
    }
}

/// A fork is itself forkable: fork → advance → fork → finish, dropping
/// each parent, still lands on the reference fingerprint.
#[test]
fn double_resume_is_bit_identical() {
    let script = fig12();
    let want = reference(&script);

    let mut eng = engine(script.nodes);
    drive(&mut eng, &script.accesses[..60]);
    let mut mid = fork(&eng);
    drop(eng);
    drive(&mut mid, &script.accesses[60..140]);
    let mut fin = fork(&mid);
    drop(mid);
    drive(&mut fin, &script.accesses[140..]);
    assert_eq!(fingerprint(&fin, &script), want);
}

fn kernel(app: AppKind, variant: Variant, cfg: &SystemConfig) -> KernelProgram {
    KernelProgram::build(app, variant, true, cfg, 0.1)
}

/// Pumps a started driver to quiescence; returns its report and
/// counter fingerprint.
fn drain(mut d: Driver<KernelProgram>) -> (RunReport, String) {
    while d.pump() {}
    let stats = stats_fingerprint(d.engine());
    (d.finish(), stats)
}

/// The service's resume path: a driver rebuilt by [`Driver::resume`] at
/// a seeded step count finishes with the uninterrupted run's report and
/// counters, and a count past the run's end is refused.
#[test]
fn driver_resume_matches_uninterrupted_run() {
    let cfg = SystemConfig::builder(8).build().expect("valid nodes");
    let mut rng = SplitMix64::new(0x51A9_0003);
    for app in [AppKind::Ft, AppKind::Cg] {
        for variant in [Variant::Dsm1, Variant::Dsm2] {
            let mut d = Driver::new(&cfg, kernel(app, variant, &cfg));
            d.start();
            while d.pump() {}
            let end = d.engine().steps();
            let want = drain(d);
            for k in [0, end]
                .into_iter()
                .chain((0..4).map(|_| rng.next_below(end)))
            {
                let d = Driver::resume(&cfg, kernel(app, variant, &cfg), k)
                    .unwrap_or_else(|| panic!("{app:?} {variant:?}: resume to step {k} of {end}"));
                assert_eq!(d.engine().steps(), k, "replay stops at the checkpoint");
                assert!(
                    drain(d) == want,
                    "{app:?} {variant:?}: resumed at step {k} of {end} diverged"
                );
            }
            assert!(
                Driver::resume(&cfg, kernel(app, variant, &cfg), end + 1).is_none(),
                "{app:?} {variant:?}: a checkpoint past the run's end must be refused"
            );
        }
    }
}
