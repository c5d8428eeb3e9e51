//! Small closed workloads for schedule exploration.
//!
//! A checker scenario is deliberately tiny — a handful of nodes hammering
//! one or two blocks — because interleaving count grows exponentially
//! with concurrency. Every node issues all its accesses at time zero, so
//! the controlled scheduler (not timing) decides every race.

use crate::ledger::SpanLedger;
use cenju4_directory::{DirectoryId, NodeId};
use cenju4_network::FaultPlan;
use cenju4_protocol::{
    Addr, ConfigError, Engine, FaultInjection, MemOp, ProtocolId, ProtocolKind, RecoveryParams,
    SystemConfig,
};
use core::fmt;

/// One checker scenario: machine shape, workload size, protocol variant,
/// the (normally absent) injected fault, and the recovery-layer switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckConfig {
    /// Machine size (2..=1024; exploration is only tractable to ~4).
    pub nodes: u16,
    /// Number of distinct blocks the workload touches.
    pub blocks: u16,
    /// Accesses each node issues.
    pub ops_per_node: u32,
    /// Coherence protocol under check (invalidate-based MESI or the
    /// update-based Dragon variant).
    pub coherence: ProtocolId,
    /// Directory sharer-set format under check.
    pub directory: DirectoryId,
    /// Protocol variant under check.
    pub kind: ProtocolKind,
    /// Test-only protocol mutation (mutant runs).
    pub fault: FaultInjection,
    /// Whether the link-level recovery layer is armed. With a lossless
    /// fabric this is a no-op (the engine elides the whole layer).
    pub recovery: bool,
    /// Seed for the probabilistic fault plan (meaningful with
    /// `drop_permille > 0`).
    pub fault_seed: u64,
    /// Per-message drop probability in permille for the probabilistic
    /// fabric plan; 0 leaves the fabric lossless (bar `fault` one-shots).
    pub drop_permille: u16,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            nodes: 2,
            blocks: 1,
            ops_per_node: 2,
            coherence: ProtocolId::Mesi,
            directory: DirectoryId::PointerPattern,
            kind: ProtocolKind::Queuing,
            fault: FaultInjection::None,
            recovery: false,
            fault_seed: 0,
            drop_permille: 0,
        }
    }
}

impl fmt::Display for CheckConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes x {} blocks x {} ops ({}/{:?}, fault={}, recovery={})",
            self.nodes,
            self.blocks,
            self.ops_per_node,
            self.coherence,
            self.kind,
            self.fault,
            if self.recovery { "on" } else { "off" },
        )?;
        if self.directory != DirectoryId::default() {
            write!(f, " dir={}", self.directory)?;
        }
        if self.drop_permille > 0 {
            write!(f, " drop={}%o seed={}", self.drop_permille, self.fault_seed)?;
        }
        Ok(())
    }
}

impl CheckConfig {
    /// Rejects configurations the machine builder refuses (a node count
    /// out of range, Dragon over the nack home), so no explorer panics
    /// or reports a fake counterexample on them. Also rejects
    /// configurations whose fault mutant can never fire, so a checker
    /// run cannot report a hollow "all green". The delayed-invalidation
    /// race needs a requester, a home, and a *third* node holding the
    /// stale copy; the node mutants kill node 1 and need a healthy
    /// remote pair left over; `quarantine-off` mutates the recovery
    /// layer and is meaningless with recovery disarmed.
    pub fn validate(&self) -> Result<(), String> {
        self.system_config()
            .map_err(|e| format!("invalid machine configuration: {e}"))?;
        let need = self.fault.min_nodes();
        if u32::from(self.nodes) < need {
            return Err(format!(
                "fault {} cannot fire with {} node(s); it needs at least \
                 {need} (valid: --nodes {need} or more)",
                self.fault, self.nodes
            ));
        }
        if self.fault.needs_recovery() && !self.recovery {
            return Err(format!(
                "fault {} mutates the recovery layer and never fires with \
                 recovery off; add --recovery on",
                self.fault
            ));
        }
        Ok(())
    }

    /// The blocks the workload touches, spread across home nodes.
    pub fn block_addrs(&self) -> Vec<Addr> {
        (0..self.blocks)
            .map(|b| Addr::new(NodeId::new(b % self.nodes), (b / self.nodes) as u32))
            .collect()
    }

    /// The position of `addr` in [`CheckConfig::block_addrs`], or `None`
    /// when the workload never touches it.
    pub fn block_index(&self, addr: Addr) -> Option<usize> {
        let home = addr.home().as_usize();
        let i = addr.block() as usize * self.nodes as usize + home;
        (home < self.nodes as usize && i < self.blocks as usize).then_some(i)
    }

    /// Total accesses the workload issues.
    pub fn issued_ops(&self) -> usize {
        self.nodes as usize * self.ops_per_node as usize
    }

    /// The machine the scenario runs on. [`CheckConfig::validate`] and
    /// [`CheckConfig::engine`] both build it here.
    ///
    /// # Errors
    ///
    /// Returns the builder's [`ConfigError`] for a machine it rejects.
    pub fn system_config(&self) -> Result<SystemConfig, ConfigError> {
        let recovery = if self.recovery {
            if self.fault == FaultInjection::QuarantineOff {
                // The quarantine-off mutant arms the detector but lets a
                // suspected node fall back to Up instead of quarantining
                // it — the stranded masters must then blow a budget.
                RecoveryParams {
                    quarantine: false,
                    ..RecoveryParams::default()
                }
            } else {
                RecoveryParams::default()
            }
        } else {
            RecoveryParams::disabled()
        };
        let plan = if self.drop_permille > 0 {
            FaultPlan::random(self.fault_seed, self.drop_permille)
        } else {
            FaultPlan::none()
        };
        SystemConfig::builder(self.nodes)
            .protocol(self.coherence)
            .kind(self.kind)
            .directory(self.directory)
            .recovery(recovery)
            .fault_plan(plan)
            .build()
    }

    /// Builds a controlled-schedule engine with the workload issued: node
    /// `n`'s `i`-th access targets block `(i + n) mod blocks` and is a
    /// store when `n + i` is even — every pair of nodes races on every
    /// block, with reads checking the writes.
    ///
    /// # Panics
    ///
    /// Panics if [`CheckConfig::validate`] rejects the configuration.
    pub fn engine(&self) -> Engine {
        let cfg = self
            .system_config()
            .expect("checker scenario configuration invalid");
        self.engine_on(&cfg)
    }

    /// [`CheckConfig::engine`] on the machine `cfg`, which tests derive
    /// from [`CheckConfig::system_config`] to reach states the scenario's
    /// own machine does not (evictions from a one-line cache).
    ///
    /// The engine records no trace and carries one observer, a
    /// [`SpanLedger`]: the quiescence oracle's transaction-leak detector
    /// (every opened span must have closed). Observers are pure
    /// instrumentation, so the schedule space is unchanged.
    pub fn engine_on(&self, cfg: &SystemConfig) -> Engine {
        let mut eng = Engine::new(cfg);
        eng.enable_controlled_schedule();
        eng.add_observer(Box::new(SpanLedger::default()));
        // A fabric mutant's one-shot plan replaces the probabilistic one.
        eng.inject_fault(self.fault);
        let blocks = self.block_addrs();
        for n in 0..self.nodes {
            for i in 0..self.ops_per_node {
                let addr = blocks[(i as usize + n as usize) % blocks.len()];
                let op = if (n as u32 + i).is_multiple_of(2) {
                    MemOp::Store
                } else {
                    MemOp::Load
                };
                eng.try_issue(cenju4_des::SimTime::ZERO, NodeId::new(n), op, addr)
                    .expect("workload issue rejected");
            }
        }
        eng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `block_index` inverts `block_addrs`, and names no other block.
    #[test]
    fn block_index_inverts_block_addrs() {
        for (nodes, blocks) in [(2, 1), (3, 2), (3, 7), (40, 1)] {
            let cfg = CheckConfig {
                nodes,
                blocks,
                ..CheckConfig::default()
            };
            let addrs = cfg.block_addrs();
            for (i, &addr) in addrs.iter().enumerate() {
                assert_eq!(cfg.block_index(addr), Some(i));
            }
            for home in 0..nodes {
                for block in 0..=u32::from(blocks) {
                    let addr = Addr::new(NodeId::new(home), block);
                    if !addrs.contains(&addr) {
                        assert_eq!(cfg.block_index(addr), None, "{addr}");
                    }
                }
            }
        }
    }
}
