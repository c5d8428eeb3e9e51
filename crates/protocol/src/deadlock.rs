//! The resource-dependency graph of Figure 9, as executable analysis.
//!
//! Section 3.4 argues deadlock freedom like this: each node's three
//! protocol modules (master, home, slave) and the network are *resources*;
//! an arrow A → B means "for A to finish processing a message it must be
//! able to hand a message to B". Cycles in this graph are potential
//! deadlocks. Cenju-4 removes three specific arrows by backing them with
//! main-memory queues big enough for every message that can ever traverse
//! them (the master's 4-reply buffer and the two 64 KB regions), which
//! breaks every cycle.
//!
//! This module encodes that graph, lets you mark edges as buffered, and
//! checks acyclicity — so the paper's argument is a unit test here, and so
//! is its *minimality* (dropping any one of the three buffers restores a
//! cycle).

use core::fmt;

/// A resource in the dependency graph.
///
/// Module inputs are modeled per class of node role; the network is a
/// single resource because Cenju-4 has one physical channel (the premise
/// of the whole problem).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// A master module's input (receives replies).
    Master,
    /// A home module's input (receives requests, writebacks and replies).
    Home,
    /// A slave module's input (receives forwards and invalidations).
    Slave,
    /// The single physical network.
    Network,
}

impl Resource {
    /// All resources.
    pub const ALL: [Resource; 4] = [
        Resource::Master,
        Resource::Home,
        Resource::Slave,
        Resource::Network,
    ];

    fn idx(self) -> usize {
        match self {
            Resource::Master => 0,
            Resource::Home => 1,
            Resource::Slave => 2,
            Resource::Network => 3,
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resource::Master => "master",
            Resource::Home => "home",
            Resource::Slave => "slave",
            Resource::Network => "network",
        })
    }
}

/// One dependency arrow, labeled with the message class that causes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// The resource that blocks…
    pub from: Resource,
    /// …waiting for space in this resource.
    pub to: Resource,
    /// The message class creating the dependency.
    pub label: &'static str,
}

/// The dependency edges of the Cenju-4 protocol (Figure 9). Derived from
/// the message flows of the appendix:
///
/// * masters emit requests and writebacks into the network;
/// * the network delivers into all three module inputs;
/// * homes emit replies, forwards and invalidations into the network;
/// * slaves emit replies into the network.
pub fn protocol_edges() -> Vec<Edge> {
    vec![
        Edge {
            from: Resource::Master,
            to: Resource::Network,
            label: "request/writeback out",
        },
        Edge {
            from: Resource::Network,
            to: Resource::Home,
            label: "request/writeback/reply in",
        },
        Edge {
            from: Resource::Home,
            to: Resource::Network,
            label: "reply/forward/invalidate out",
        },
        Edge {
            from: Resource::Network,
            to: Resource::Slave,
            label: "forward/invalidate in",
        },
        Edge {
            from: Resource::Slave,
            to: Resource::Network,
            label: "slave reply out",
        },
        Edge {
            from: Resource::Network,
            to: Resource::Master,
            label: "reply in",
        },
    ]
}

/// The three dependency-breaking buffers Cenju-4 provisions (the white
/// arrows of Figure 9), with their size bounds on an `n`-node machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Buffer {
    /// The master module can always sink its ≤ 4 outstanding replies.
    MasterInput,
    /// The slave module spills requests to a 64 KB main-memory region
    /// (`n × 4` entries of 128 bits).
    SlaveInput,
    /// The home module spills outgoing messages (one invalidation message
    /// + node map per transaction) to another 64 KB region.
    HomeOutput,
}

impl Buffer {
    /// The paper's three buffers.
    pub const CENJU4: [Buffer; 3] = [Buffer::MasterInput, Buffer::SlaveInput, Buffer::HomeOutput];

    /// The edge this buffer makes non-blocking.
    pub fn breaks(&self) -> (Resource, Resource) {
        match self {
            Buffer::MasterInput => (Resource::Network, Resource::Master),
            Buffer::SlaveInput => (Resource::Network, Resource::Slave),
            Buffer::HomeOutput => (Resource::Home, Resource::Network),
        }
    }

    /// The buffer's capacity in *messages* on an `n`-node machine with
    /// four outstanding requests per processor.
    pub fn capacity(&self, nodes: u32) -> u32 {
        match self {
            Buffer::MasterInput => 4,
            Buffer::SlaveInput | Buffer::HomeOutput => 4 * nodes,
        }
    }

    /// The buffer's size in bytes on an `n`-node machine (the paper's
    /// 64 KB figures at 1024 nodes: `4n` entries of 128 bits).
    pub fn bytes(&self, nodes: u32) -> u32 {
        match self {
            Buffer::MasterInput => 4 * 16,
            Buffer::SlaveInput | Buffer::HomeOutput => 4 * nodes * 16,
        }
    }
}

/// Checks whether the dependency graph — `edges` minus those broken by
/// `buffers` — contains a cycle. Returns the cycle as a resource sequence
/// if one exists.
pub fn find_cycle(edges: &[Edge], buffers: &[Buffer]) -> Option<Vec<Resource>> {
    let broken: Vec<(Resource, Resource)> = buffers.iter().map(|b| b.breaks()).collect();
    let mut adj = [[false; 4]; 4];
    for e in edges {
        if !broken.contains(&(e.from, e.to)) {
            adj[e.from.idx()][e.to.idx()] = true;
        }
    }
    // DFS with colors over the 4-resource graph.
    fn dfs(
        v: usize,
        adj: &[[bool; 4]; 4],
        color: &mut [u8; 4],
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        color[v] = 1;
        stack.push(v);
        for (u, &has) in adj[v].iter().enumerate() {
            if !has {
                continue;
            }
            if color[u] == 1 {
                let start = stack.iter().position(|&x| x == u).expect("on stack");
                let mut cycle = stack[start..].to_vec();
                cycle.push(u);
                return Some(cycle);
            }
            if color[u] == 0 {
                if let Some(c) = dfs(u, adj, color, stack) {
                    return Some(c);
                }
            }
        }
        stack.pop();
        color[v] = 2;
        None
    }
    let mut color = [0u8; 4];
    let mut stack = Vec::new();
    for v in 0..4 {
        if color[v] == 0 {
            if let Some(c) = dfs(v, &adj, &mut color, &mut stack) {
                return Some(c.into_iter().map(|i| Resource::ALL[i]).collect());
            }
        }
    }
    None
}

/// `true` if the protocol graph is deadlock-free under `buffers`.
pub fn deadlock_free(buffers: &[Buffer]) -> bool {
    find_cycle(&protocol_edges(), buffers).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbuffered_graph_has_cycles() {
        // Figure 9: "there are many loops in the graph".
        let cycle = find_cycle(&protocol_edges(), &[]);
        assert!(cycle.is_some(), "the raw graph must contain a cycle");
    }

    #[test]
    fn cenju4_buffers_break_every_cycle() {
        assert!(deadlock_free(&Buffer::CENJU4));
    }

    #[test]
    fn each_buffer_is_necessary() {
        // Dropping any one of the three buffers restores a cycle — the
        // paper chose a *minimal* cut.
        for drop in 0..3 {
            let remaining: Vec<Buffer> = Buffer::CENJU4
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, b)| *b)
                .collect();
            assert!(
                !deadlock_free(&remaining),
                "dropping {:?} should leave a cycle",
                Buffer::CENJU4[drop]
            );
        }
    }

    #[test]
    fn buffer_sizes_match_the_paper() {
        // 1024 nodes: slave and home buffers are 64 KB each; the master
        // buffer holds the 4 outstanding replies.
        assert_eq!(Buffer::SlaveInput.bytes(1024), 64 * 1024);
        assert_eq!(Buffer::HomeOutput.bytes(1024), 64 * 1024);
        assert_eq!(Buffer::MasterInput.capacity(1024), 4);
        assert_eq!(Buffer::SlaveInput.capacity(1024), 4096);
    }

    #[test]
    fn cycle_report_names_resources() {
        let cycle = find_cycle(&protocol_edges(), &[Buffer::MasterInput]).expect("cycle");
        assert!(cycle.len() >= 3);
        assert_eq!(cycle.first(), cycle.last());
    }

    #[test]
    fn simulated_buffer_occupancy_stays_within_figure9_bounds() {
        // Tie the static argument to the dynamic simulator: a hot-spot
        // stress on a 16-node machine must keep every module backlog
        // within the capacities the graph analysis assumes.
        use cenju4_des::SplitMix64;
        use cenju4_directory::NodeId;
        let mut eng = crate::Engine::new(&crate::SystemConfig::builder(16).build().unwrap());
        let mut rng = SplitMix64::new(3);
        for _ in 0..40 {
            let t0 = eng.now();
            for n in 0..16u16 {
                let op = if rng.chance(0.5) {
                    crate::MemOp::Load
                } else {
                    crate::MemOp::Store
                };
                eng.issue(t0, NodeId::new(n), op, crate::Addr::new(NodeId::new(0), 0));
            }
            eng.run();
        }
        assert!(eng.max_master_input_depth() <= Buffer::MasterInput.capacity(16) as u64);
        assert!(eng.max_slave_input_depth() <= Buffer::SlaveInput.capacity(16) as u64);
        assert!(eng.max_request_queue_depth() as u64 <= 4 * 16);
    }
}
