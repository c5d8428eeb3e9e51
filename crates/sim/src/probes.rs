//! Latency microbenchmarks: Table 2 and Figure 10.

use cenju4_des::Duration;
use cenju4_directory::NodeId;
use cenju4_protocol::{Addr, Engine, MemOp, Notification, SystemConfig};

/// The five rows of Table 2 for one machine size, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadLatencies {
    /// Row a: private memory (no DSM).
    pub private: Duration,
    /// Row b: local shared memory, block clean.
    pub shared_local_clean: Duration,
    /// Row c: remote shared memory, block clean.
    pub shared_remote_clean: Duration,
    /// Row d: local shared memory, block dirty in a remote cache.
    pub shared_local_dirty: Duration,
    /// Row e: remote shared memory, block dirty in a third node's cache.
    pub shared_remote_dirty: Duration,
}

/// Runs one access and returns its measured latency.
fn measure(eng: &mut Engine, node: NodeId, op: MemOp, addr: Addr) -> Duration {
    let txn = eng.issue(eng.now(), node, op, addr);
    let done = eng.run();
    done.iter()
        .find_map(|n| match n {
            Notification::Completed {
                txn: t,
                issued,
                finished,
                ..
            } if *t == txn => Some(finished.since(*issued)),
            _ => None,
        })
        .expect("probe access must complete")
}

/// Measures the five load-latency classes of Table 2 on a fresh machine.
///
/// Every row is measured as a secondary-cache miss, exactly as the paper
/// does: the probe block is never in the issuing node's cache.
pub fn load_latencies(cfg: &SystemConfig) -> LoadLatencies {
    // Row a is a processor-local constant (no DSM involvement).
    let private = cfg.proto.private_miss;

    // Row b: local clean. Fresh engine, node 0 loads its own memory.
    let shared_local_clean = {
        let mut eng = Engine::new(cfg);
        measure(
            &mut eng,
            NodeId::new(0),
            MemOp::Load,
            Addr::new(NodeId::new(0), 0),
        )
    };

    // Row c: remote clean.
    let shared_remote_clean = {
        let mut eng = Engine::new(cfg);
        measure(
            &mut eng,
            NodeId::new(0),
            MemOp::Load,
            Addr::new(NodeId::new(1), 0),
        )
    };

    // Row d: local memory, dirty in a remote cache.
    let shared_local_dirty = {
        let mut eng = Engine::new(cfg);
        let a = Addr::new(NodeId::new(0), 0);
        let _ = measure(&mut eng, NodeId::new(1), MemOp::Store, a);
        measure(&mut eng, NodeId::new(0), MemOp::Load, a)
    };

    // Row e: remote memory, dirty in a third node's cache.
    let shared_remote_dirty = {
        let mut eng = Engine::new(cfg);
        let a = Addr::new(NodeId::new(1), 0);
        let _ = measure(&mut eng, NodeId::new(2), MemOp::Store, a);
        measure(&mut eng, NodeId::new(0), MemOp::Load, a)
    };

    LoadLatencies {
        private,
        shared_local_clean,
        shared_remote_clean,
        shared_local_dirty,
        shared_remote_dirty,
    }
}

/// Measures the Figure 10 store latency: a store to a block cached Shared
/// by `sharers` nodes (the issuing master included).
///
/// The block lives at node 0; the sharers are nodes `1..=sharers` (or all
/// nodes when `sharers` equals the machine size); the master is node 1.
/// The measured access is the ownership upgrade, which invalidates the
/// other `sharers-1` copies via the network's multicast/gather hardware
/// (or a singlecast storm when the config disables it).
///
/// # Panics
///
/// Panics if `sharers < 2` (a store to an unshared block is a silent
/// upgrade with no invalidation traffic) or `sharers` exceeds the machine.
pub fn store_latency(cfg: &SystemConfig, sharers: u16) -> Duration {
    let n = cfg.sys.nodes();
    assert!((2..=n).contains(&sharers), "sharers must be 2..=nodes");
    let mut eng = Engine::new(cfg);
    let home = NodeId::new(0);
    let a = Addr::new(home, 0);
    // Warm the sharers: nodes 1..=sharers read the block (wrapping onto
    // node 0 when the whole machine shares it).
    for i in 1..=sharers {
        let reader = NodeId::new(i % n);
        let _ = measure(&mut eng, reader, MemOp::Load, a);
    }
    // Master = node 1 stores to its Shared copy.
    measure(&mut eng, NodeId::new(1), MemOp::Store, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: u16) -> SystemConfig {
        SystemConfig::builder(nodes).build().unwrap()
    }

    #[test]
    fn table2_16_nodes_matches_calibration() {
        let r = load_latencies(&cfg(16));
        assert_eq!(r.private.as_ns(), 470);
        assert_eq!(r.shared_local_clean.as_ns(), 610);
        assert_eq!(r.shared_remote_clean.as_ns(), 1710);
        assert_eq!(r.shared_local_dirty.as_ns(), 1920);
        assert_eq!(r.shared_remote_dirty.as_ns(), 3020);
    }

    #[test]
    fn table2_within_a_few_percent_of_paper() {
        // Paper values: rows (a..e) x stages (2,4,6).
        let paper: [(u16, [u64; 5]); 3] = [
            (16, [470, 610, 1690, 1900, 3120]),
            (128, [470, 610, 2210, 2480, 4170]),
            (1024, [470, 610, 2730, 3060, 5220]),
        ];
        for (nodes, expect) in paper {
            let r = load_latencies(&cfg(nodes));
            let got = [
                r.private.as_ns(),
                r.shared_local_clean.as_ns(),
                r.shared_remote_clean.as_ns(),
                r.shared_local_dirty.as_ns(),
                r.shared_remote_dirty.as_ns(),
            ];
            for (g, e) in got.iter().zip(expect) {
                let err = (*g as f64 - e as f64).abs() / e as f64;
                assert!(
                    err < 0.05,
                    "{nodes} nodes: got {g} vs paper {e} ({:.1}% off)",
                    err * 100.0
                );
            }
        }
    }

    #[test]
    fn store_latency_grows_slowly_with_multicast() {
        let c = cfg(128);
        let l2 = store_latency(&c, 2);
        let l64 = store_latency(&c, 64);
        let l128 = store_latency(&c, 128);
        assert!(l64 > l2);
        // Sub-linear: 64x the sharers costs far less than 64x the latency.
        assert!(l128.as_ns() < l2.as_ns() * 8, "{l2} -> {l128}");
    }

    #[test]
    fn store_latency_linear_without_multicast() {
        let c = SystemConfig::builder(128)
            .multicast(cenju4_network::MulticastMode::SinglecastEmulation)
            .build()
            .unwrap();
        let l8 = store_latency(&c, 8);
        let l128 = store_latency(&c, 128);
        // Linear in invalidation count above the fixed base: each extra
        // sharer costs one NIC injection slot (175 ns).
        let slope = (l128.as_ns() - l8.as_ns()) as f64 / (128.0 - 8.0);
        assert!(
            (120.0..=250.0).contains(&slope),
            "singlecast slope {slope:.0} ns/sharer, expected ~175: {l8} -> {l128}"
        );
    }

    #[test]
    #[should_panic]
    fn store_latency_rejects_unshared() {
        let _ = store_latency(&cfg(16), 1);
    }
}
