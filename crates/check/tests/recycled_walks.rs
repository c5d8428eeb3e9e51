//! Differential test of recycled walks: a campaign starts every walk by
//! copying its root position into one recycled position, and each walk
//! must be the walk `run_one` drives on a freshly built engine: the same
//! decisions, steps, verdict and trace, and an engine that ends in the
//! same state (fingerprint), with the same statistics and the same span
//! metrics. A walk after one that died in a caught protocol panic must
//! match too, since the copy overwrites the poisoned position whole.

use cenju4_check::explore::WalkProbe;
use cenju4_check::{run_one, CheckConfig, RunOutcome};
use cenju4_des::SplitMix64;
use cenju4_obs::SpanCollector;
use cenju4_protocol::{Engine, FaultInjection, ProtocolId, ProtocolKind};

const MAX_STEPS: usize = 10_000;

/// What a walk ended with: its verdict, steps and trace, and what its
/// engine holds.
#[derive(Debug, PartialEq)]
struct Ending {
    picks: Vec<(usize, usize)>,
    steps: usize,
    violation: Option<String>,
    trace: String,
    fingerprint: u64,
    stats: String,
    metrics: String,
}

fn spans(eng: &Engine) -> &SpanCollector {
    eng.observer::<SpanCollector>()
        .expect("checker engines carry a span collector")
}

fn ending(cfg: &CheckConfig, out: &RunOutcome, eng: &Engine) -> Ending {
    Ending {
        picks: out.choices.iter().map(|c| (c.arity, c.picked)).collect(),
        steps: out.steps,
        violation: out.violation.as_ref().map(ToString::to_string),
        trace: out.trace.clone(),
        fingerprint: eng.state_fingerprint(&cfg.block_addrs()),
        stats: format!("{:?}", eng.stats()),
        metrics: spans(eng).metrics().to_text(),
    }
}

/// Drives walks `0..walks` of the stream `seed` both ways and asserts
/// they agree; returns the oracle each walk violated, if any.
fn assert_recycled_walks_match(
    cfg: &CheckConfig,
    seed: u64,
    walks: u64,
) -> Vec<Option<&'static str>> {
    let mut probe = WalkProbe::new(cfg, seed, MAX_STEPS);
    let mut verdicts = Vec::new();
    for w in 0..walks {
        let (fresh_out, fresh_eng) = probe.fresh(w);
        let fresh = ending(cfg, &fresh_out, &fresh_eng);
        let (recycled_out, recycled_eng) = probe.recycled(w);
        let recycled = ending(cfg, &recycled_out, recycled_eng);
        assert_eq!(recycled, fresh, "{cfg}: walk {w} of seed {seed}");
        assert!(spans(recycled_eng).metrics() == spans(&fresh_eng).metrics());
        // The fresh side is `run_one` itself.
        let mut rng = SplitMix64::new(seed.wrapping_add(w).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let lib = run_one(
            cfg,
            |arity| rng.next_below(arity as u64) as usize,
            MAX_STEPS,
        );
        assert_eq!(lib.choices, fresh_out.choices, "{cfg}: walk {w}");
        assert_eq!(lib.violation, fresh_out.violation, "{cfg}: walk {w}");
        verdicts.push(fresh_out.violation.map(|v| v.oracle));
    }
    verdicts
}

/// Asserts every walk stayed green.
fn assert_green(cfg: &CheckConfig, verdicts: &[Option<&str>]) {
    assert!(verdicts.iter().all(Option::is_none), "{cfg}: {verdicts:?}");
}

fn scenario(nodes: u16, blocks: u16, ops_per_node: u32) -> CheckConfig {
    CheckConfig {
        nodes,
        blocks,
        ops_per_node,
        ..CheckConfig::default()
    }
}

/// The check-explore scenario: 3 nodes x 1 block x 2 ops under MESI
/// queuing.
#[test]
fn explore_scenario_walks_match_fresh_ones() {
    let cfg = scenario(3, 1, 2);
    assert_green(&cfg, &assert_recycled_walks_match(&cfg, 7, 200));
}

/// The check-walks scenario: recovery armed over a fabric dropping one
/// message in ten, under three fault plans.
#[test]
fn lossy_recovery_walks_match_fresh_ones() {
    for fault_seed in 1..=3 {
        let cfg = CheckConfig {
            recovery: true,
            drop_permille: 100,
            fault_seed,
            ..scenario(3, 2, 2)
        };
        assert_green(&cfg, &assert_recycled_walks_match(&cfg, fault_seed, 150));
    }
}

/// The nack protocol (retries) and Dragon (update pushes).
#[test]
fn nack_and_dragon_walks_match_fresh_ones() {
    let nack = CheckConfig {
        kind: ProtocolKind::Nack,
        ..scenario(3, 2, 2)
    };
    let dragon = CheckConfig {
        coherence: ProtocolId::Dragon,
        ..scenario(3, 2, 2)
    };
    for cfg in [nack, dragon] {
        assert_green(&cfg, &assert_recycled_walks_match(&cfg, 3, 150));
    }
}

/// Node 1 dies mid-run and the recovery layer quarantines it.
#[test]
fn node_down_walks_match_fresh_ones() {
    let cfg = CheckConfig {
        fault: FaultInjection::NodeDown,
        recovery: true,
        ..scenario(3, 2, 2)
    };
    assert_recycled_walks_match(&cfg, 5, 150);
}

/// Mutants whose protocol panics: walks that die in a caught panic, each
/// followed by another walk from the same recycled position. Under the
/// delayed invalidation some walks stay green, so green walks follow
/// poisoned positions too; a duplicated reply panics every walk.
#[test]
fn walks_after_a_caught_panic_match_fresh_ones() {
    let delay_inval = CheckConfig {
        fault: FaultInjection::DelayInval,
        ..scenario(3, 1, 2)
    };
    let verdicts = assert_recycled_walks_match(&delay_inval, 1, 100);
    let after_panic = |next: Option<&str>| {
        verdicts
            .windows(2)
            .filter(|pair| pair[0] == Some("panic") && pair[1] == next)
            .count()
    };
    assert!(
        after_panic(Some("panic")) > 5 && after_panic(None) > 5,
        "{delay_inval}: {verdicts:?}"
    );
    let dup_reply = CheckConfig {
        fault: FaultInjection::DupReply,
        ..scenario(2, 1, 2)
    };
    let verdicts = assert_recycled_walks_match(&dup_reply, 1, 20);
    assert!(verdicts.iter().all(|v| *v == Some("panic")), "{verdicts:?}");
}
