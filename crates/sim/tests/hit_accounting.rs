//! The driver accounts a visit's cache hits in one step: `n` hits of cost
//! `d` add `n` accesses, `n · d` of latency and `n · d` of time. This holds
//! it to a reference that records them one at a time, as a processor
//! executes them, over private hits, private misses and shared accesses
//! with reuse 0, 1, 2 and 1024, on machines where the nodes' shared
//! accesses contend.

use cenju4_sim::prelude::*;
use std::collections::VecDeque;

const REUSES: [u32; 4] = [0, 1, 2, 1024];

fn access(op: MemOp, target: Target, reuse: u32) -> Step {
    // Built directly: the `Step` constructors clamp a reuse of 0 to 1.
    Step::Access { op, target, reuse }
}

/// Node `n`'s script on an `nodes`-node machine: every reuse on every
/// target, loads and stores to a block homed on node 0 that every node
/// shares, to a block of its own and to its neighbour's, with think time
/// in between.
fn script(n: u16, nodes: u16) -> Vec<Step> {
    let hot = Addr::new(NodeId::new(0), 0);
    let own = Addr::new(NodeId::new(n), 1);
    let next = Addr::new(NodeId::new((n + 1) % nodes), 2);
    let mut steps = Vec::new();
    for reuse in REUSES {
        steps.push(access(MemOp::Load, Target::PrivateHit, reuse));
        steps.push(access(MemOp::Load, Target::PrivateMiss, reuse));
        for addr in [hot, own, next] {
            steps.push(access(MemOp::Load, Target::Shared(addr), reuse));
            steps.push(Step::think(40 * u64::from(n)));
            steps.push(access(MemOp::Store, Target::Shared(addr), reuse));
        }
        steps.push(Step::think(0));
    }
    steps
}

struct Scripted(Vec<VecDeque<Step>>);

impl Program for Scripted {
    fn next_step(&mut self, node: NodeId) -> Option<Step> {
        self.0[node.as_usize()].pop_front()
    }
}

fn class_index(class: AccessClass) -> usize {
    AccessClass::ALL.iter().position(|&c| c == class).unwrap()
}

/// A barrier-free driver that records every hit of a visit on its own.
struct PerHit {
    eng: Engine,
    cfg: SystemConfig,
    scripts: Vec<VecDeque<Step>>,
    pending_reuse: Vec<u32>,
    nodes: Vec<NodeReport>,
    hist: Vec<cenju4_des::stats::Histogram>,
}

impl PerHit {
    fn run(cfg: &SystemConfig, scripts: Vec<VecDeque<Step>>) -> RunReport {
        let n = scripts.len();
        let mut d = PerHit {
            eng: Engine::new(cfg),
            cfg: cfg.clone(),
            scripts,
            pending_reuse: vec![1; n],
            nodes: vec![NodeReport::default(); n],
            hist: AccessClass::ALL
                .iter()
                .map(|_| cenju4_des::stats::Histogram::new(100, 100))
                .collect(),
        };
        for i in 0..n {
            d.advance(NodeId::new(i as u16), SimTime::ZERO);
        }
        let mut notes = Vec::new();
        while d.eng.run_next(&mut notes) {
            for note in notes.drain(..) {
                match note {
                    Notification::Completed {
                        node,
                        addr,
                        issued,
                        finished,
                        hit,
                        l3,
                        ..
                    } => {
                        let class = if l3 || addr.home() == node {
                            AccessClass::SharedLocal
                        } else {
                            AccessClass::SharedRemote
                        };
                        d.hist[class_index(class)].record(finished.since(issued).as_ns());
                        let r = &mut d.nodes[node.as_usize()];
                        r.record(class, !hit, finished.since(issued));
                        let mut t = finished;
                        for _ in 1..d.pending_reuse[node.as_usize()] {
                            r.record(class, false, d.cfg.proto.hit);
                            t += d.cfg.proto.hit;
                        }
                        d.advance(node, t);
                    }
                    Notification::Marker { token, at } => d.advance(NodeId::new(token as u16), at),
                    other => panic!("unexpected notification {other:?}"),
                }
            }
        }
        RunReport {
            nodes: d.nodes,
            latency_hist: d.hist,
        }
    }

    fn advance(&mut self, node: NodeId, mut t: SimTime) {
        let i = node.as_usize();
        let (hit, private_miss) = (self.cfg.proto.hit, self.cfg.proto.private_miss);
        while let Some(step) = self.scripts[i].pop_front() {
            let r = &mut self.nodes[i];
            match step {
                Step::Think(d) if d == Duration::ZERO => {}
                Step::Think(d) => {
                    r.think += d;
                    self.eng.schedule_marker(t + d, i as u64);
                    return;
                }
                Step::Access {
                    op,
                    target: Target::Shared(addr),
                    reuse,
                } => {
                    self.pending_reuse[i] = reuse.max(1);
                    self.eng.try_issue(t, node, op, addr).unwrap();
                    return;
                }
                Step::Access {
                    target: Target::PrivateHit,
                    reuse,
                    ..
                } => {
                    for _ in 0..reuse.max(1) {
                        r.record(AccessClass::Private, false, hit);
                        t += hit;
                    }
                }
                Step::Access {
                    target: Target::PrivateMiss,
                    reuse,
                    ..
                } => {
                    r.record(AccessClass::Private, true, private_miss);
                    t += private_miss;
                    for _ in 1..reuse.max(1) {
                        r.record(AccessClass::Private, false, hit);
                        t += hit;
                    }
                }
                Step::Barrier => unreachable!("the scripts have no barrier"),
            }
        }
        self.nodes[i].finished = t;
    }
}

#[test]
fn bulk_hit_accounting_matches_per_hit_reference() {
    for nodes in [2u16, 4, 8] {
        let cfg = SystemConfig::builder(nodes).build().unwrap();
        let scripts: Vec<VecDeque<Step>> = (0..nodes)
            .map(|n| script(n, nodes).into_iter().collect())
            .collect();
        let driven = Driver::new(&cfg, Scripted(scripts.clone())).run();
        let reference = PerHit::run(&cfg, scripts);
        assert_eq!(driven, reference, "{nodes} nodes");
        // Every node's reuse-1024 visits were accounted, shared ones too.
        let per_node: u64 = REUSES.iter().map(|&r| u64::from(r.max(1))).sum();
        assert_eq!(
            driven.accesses(AccessClass::Private),
            2 * per_node * u64::from(nodes)
        );
        let shared =
            driven.accesses(AccessClass::SharedLocal) + driven.accesses(AccessClass::SharedRemote);
        assert_eq!(shared, 6 * per_node * u64::from(nodes));
        assert!(driven.misses(AccessClass::SharedRemote) > 0);
    }
}
