//! Parallel-determinism acceptance: the same exploration run with 1, 2,
//! 4, or 8 worker threads yields the same explored-state counts and the
//! same violation (if any), and the reported counterexample replays. A
//! random-walk campaign at any thread count, and through `random_walks`,
//! reports what the campaign run inline on one worker reports.
//! Thread fanning must never change what the checker *says* — only how
//! fast it says it.

use cenju4_check::{
    explore_reduced_with, random_walks, random_walks_parallel, replay, CheckConfig, Counterexample,
    Exploration, ExploreLimits,
};
use cenju4_protocol::{FaultInjection, ProtocolKind};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn limits() -> ExploreLimits {
    ExploreLimits {
        max_steps: 5_000,
        max_schedules: 200_000,
        max_seconds: 120,
    }
}

fn schedules_of(e: &Exploration) -> u64 {
    match e {
        Exploration::AllGreen { schedules } | Exploration::Budget { schedules } => *schedules,
        Exploration::Falsified(cx) => cx.schedules_explored,
    }
}

/// Green unreduced exploration: identical leaf/transition counts for
/// every thread count (the frontier partition is thread-independent and
/// every job runs to completion).
#[test]
fn unreduced_counts_are_thread_independent() {
    let cfg = CheckConfig::default();
    let baseline = explore_reduced_with(&cfg, &limits(), 1, false);
    assert!(matches!(baseline.exploration, Exploration::AllGreen { .. }));
    for threads in THREADS {
        let out = explore_reduced_with(&cfg, &limits(), threads, false);
        assert_eq!(
            (out.leaves, out.transitions, out.jobs),
            (baseline.leaves, baseline.transitions, baseline.jobs),
            "{threads} threads changed the explored counts"
        );
        assert_eq!(
            schedules_of(&out.exploration),
            schedules_of(&baseline.exploration)
        );
    }
}

/// The reduced walk is sequential by design, so thread count must be a
/// no-op there too — same states, transitions, and verdict.
#[test]
fn reduced_counts_are_thread_independent() {
    let cfg = CheckConfig {
        nodes: 3,
        blocks: 2,
        ops_per_node: 1,
        ..CheckConfig::default()
    };
    let baseline = explore_reduced_with(&cfg, &limits(), 1, true);
    assert!(baseline.reduced);
    for threads in THREADS {
        let out = explore_reduced_with(&cfg, &limits(), threads, true);
        assert_eq!(
            (out.unique_states, out.transitions, out.leaves),
            (
                baseline.unique_states,
                baseline.transitions,
                baseline.leaves
            ),
            "{threads} threads changed the reduced counts"
        );
    }
}

/// A violating unreduced exploration reports the *same* counterexample
/// for every thread count (lowest job index, DFS-first within the job),
/// and that counterexample replays to the reported violation.
#[test]
fn unreduced_violation_is_thread_independent() {
    let cfg = CheckConfig {
        fault: FaultInjection::DropSpilledRequests,
        ..CheckConfig::default()
    };
    let mut first: Option<(Vec<usize>, &'static str)> = None;
    for threads in THREADS {
        let out = explore_reduced_with(&cfg, &limits(), threads, false);
        let cx = match out.exploration {
            Exploration::Falsified(cx) => cx,
            other => panic!("{threads} threads: mutant survived: {other:?}"),
        };
        let a = replay(&cfg, &cx.schedule, limits().max_steps);
        assert_eq!(
            a.violation.as_ref(),
            Some(&cx.violation),
            "{threads} threads: replay does not reproduce the violation"
        );
        match &first {
            None => first = Some((cx.schedule.clone(), cx.violation.oracle)),
            Some((schedule, oracle)) => {
                assert_eq!(
                    (&cx.schedule, cx.violation.oracle),
                    (schedule, *oracle),
                    "{threads} threads reported a different counterexample"
                );
            }
        }
    }
}

/// A campaign on one worker, which runs every walk inline on the calling
/// thread: the reference every other thread count must match.
fn inline_walks(cfg: &CheckConfig, seed: u64, walks: u64, limits: &ExploreLimits) -> Exploration {
    random_walks_parallel(cfg, seed, walks, limits, 1)
}

/// The counterexample a campaign must report.
fn falsified(out: Exploration, who: &str) -> Box<Counterexample> {
    match out {
        Exploration::Falsified(cx) => cx,
        other => panic!("{who}: the campaign found no violation: {other:?}"),
    }
}

/// Asserts that `cfg`'s campaign reports the inline campaign's
/// counterexample (schedule, violation, walk count) at every thread
/// count and through `random_walks`: the lowest failing walk wins
/// whichever worker raced past it.
fn assert_same_counterexample(cfg: &CheckConfig, seed: u64, walks: u64, limits: &ExploreLimits) {
    let inline = falsified(inline_walks(cfg, seed, walks, limits), "1 thread");
    let runs = THREADS
        .map(|threads| {
            let out = random_walks_parallel(cfg, seed, walks, limits, threads);
            (format!("{threads} threads"), out)
        })
        .into_iter()
        .chain([(
            "random_walks".to_string(),
            random_walks(cfg, seed, walks, limits),
        )]);
    for (who, out) in runs {
        let cx = falsified(out, &who);
        assert_eq!(
            (&cx.schedule, &cx.violation, cx.schedules_explored),
            (
                &inline.schedule,
                &inline.violation,
                inline.schedules_explored
            ),
            "{who} diverged from the inline campaign"
        );
    }
}

/// A mutant campaign reports the same counterexample at every thread
/// count.
#[test]
fn parallel_walks_match_sequential_walks() {
    let cfg = CheckConfig {
        nodes: 3,
        fault: FaultInjection::DelayInval,
        ..CheckConfig::default()
    };
    assert_same_counterexample(&cfg, 0x1D1A, 200, &limits());
}

/// A nack campaign under a 34-step cap, which only long retry schedules
/// exceed: walks 13, 28, 32, 33, ... fail to quiesce. Walk 32 opens the
/// second batch, so with two or more workers a higher failure is usually
/// found before walk 13, and the campaign must still report walk 13. Which
/// worker gets there first is up to the host, so the campaigns run a few
/// times.
#[test]
fn nack_walk_counterexample_is_thread_independent() {
    let cfg = CheckConfig {
        nodes: 3,
        blocks: 2,
        ops_per_node: 2,
        kind: ProtocolKind::Nack,
        ..CheckConfig::default()
    };
    let limits = ExploreLimits {
        max_steps: 34,
        ..limits()
    };
    let cx = falsified(inline_walks(&cfg, 12, 300, &limits), "1 thread");
    assert_eq!(cx.violation.oracle, "progress");
    assert_eq!(cx.schedules_explored, 14, "the first failing walk moved");
    for _ in 0..4 {
        assert_same_counterexample(&cfg, 12, 300, &limits);
    }
}

/// Green campaigns complete every walk and say so identically at every
/// thread count and through `random_walks`: a lossless 3-node scenario,
/// and the check-walks benchmark scenario (3 nodes x 2 blocks x 2 ops, the
/// recovery layer over a fabric dropping one message in ten) under three
/// fault plans.
#[test]
fn parallel_walks_green_campaign_is_deterministic() {
    let lossless = CheckConfig {
        nodes: 3,
        blocks: 2,
        ..CheckConfig::default()
    };
    let lossy = |fault_seed| CheckConfig {
        nodes: 3,
        blocks: 2,
        ops_per_node: 2,
        recovery: true,
        drop_permille: 100,
        fault_seed,
        ..CheckConfig::default()
    };
    let campaigns = [(lossless, 42, 64)]
        .into_iter()
        .chain((1..=3).map(|s| (lossy(s), s, 300)));
    for (cfg, seed, walks) in campaigns {
        let runs = THREADS
            .map(|threads| random_walks_parallel(&cfg, seed, walks, &limits(), threads))
            .into_iter()
            .chain([random_walks(&cfg, seed, walks, &limits())]);
        for out in runs {
            match out {
                Exploration::AllGreen { schedules } => assert_eq!(schedules, walks),
                other => panic!("{cfg}, seed {seed}: expected green walks, got {other:?}"),
            }
        }
    }
}
