//! # cenju4 — a reproduction of the Cenju-4 DSM architecture
//!
//! This is the facade crate of a full reproduction of *"A DSM Architecture
//! for a Parallel Computer Cenju-4"* (Hosomi, Kanoh, Nakamura, Hirose;
//! HPCA 2000): a cache-coherent NUMA multiprocessor scalable to 1024
//! nodes, built here as a deterministic discrete-event simulator.
//!
//! The system decomposes into the crates re-exported below:
//!
//! | crate | paper section | contents |
//! |---|---|---|
//! | [`des`] | — | event queue, clock, RNG, statistics |
//! | [`directory`] | §3.1 | pointer + bit-pattern node maps, 64-bit directory entries, the engine's four sharer-set formats (`DirectoryId`), baseline schemes, the Table-1 cost model (`SchemeCost`), Figure-4 precision analytics |
//! | [`network`] | §3.2 | 4×4-crossbar multistage network with in-switch multicast and reply gathering |
//! | [`protocol`] | §2, §3.3–3.4 + appendix | coherence protocols as one closed `Rules` table (invalidate-based MESI and update-based Dragon per machine, the §4.2.3 update protocol with main-memory L3 per block), the starvation-free queuing protocol, deadlock-prevention buffers and the Figure-9 graph analysis, nack baseline, user-level message passing, event tracing |
//! | [`sim`] | §4.1 | latency probes (Table 2, Figure 10), processor driver, barriers, reports |
//! | [`workloads`] | §4.2 | synthetic BT/CG/FT/SP in seq/mpi/dsm(1)/dsm(2) variants |
//!
//! # Quickstart
//!
//! ```
//! use cenju4::prelude::*;
//!
//! // Build a 16-node machine and measure the Table 2 load latencies.
//! let cfg = SystemConfig::builder(16).build()?;
//! let row = cenju4::sim::probes::load_latencies(&cfg);
//! assert_eq!(row.shared_local_clean.as_ns(), 610);
//!
//! // Store latency to a block shared by 8 nodes (Figure 10's x=8 point).
//! let lat = cenju4::sim::probes::store_latency(&cfg, 8);
//! assert!(lat.as_ns() > row.shared_local_clean.as_ns());
//! # Ok::<(), cenju4::sim::ConfigError>(())
//! ```

pub use cenju4_des as des;
pub use cenju4_directory as directory;
pub use cenju4_network as network;
pub use cenju4_obs as obs;
pub use cenju4_protocol as protocol;
pub use cenju4_sim as sim;
pub use cenju4_workloads as workloads;

/// The most commonly used types, for `use cenju4::prelude::*`.
///
/// Built on [`cenju4_sim::prelude`] — the simulation stack's single
/// import path — plus the directory-analytics, raw-fabric, and workload
/// types that only full-system consumers need.
pub mod prelude {
    pub use cenju4_sim::prelude::*;

    pub use cenju4_directory::{BitPattern, Cenju4NodeMap, DirectoryEntry, NodeMap};
    pub use cenju4_network::Fabric;
    pub use cenju4_workloads::{AppKind, Variant};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let sys = SystemSize::new(16).unwrap();
        assert_eq!(sys.stages(), 2);
        let _ = SystemConfig::builder(16).build().unwrap();
    }

    /// The protocol and directory selectors reach the facade prelude: the
    /// selector enums, the rules and sharer sets they select, and the
    /// builder setters all resolve from `cenju4::prelude::*` alone.
    #[test]
    fn facade_reexports_the_seam_types() {
        use crate::prelude::*;
        let rules: Rules = ProtocolId::Dragon.rules();
        assert_eq!(ProtocolId::Dragon.name(), "dragon");
        assert_eq!(DirectoryId::CoarseVector.name(), "coarse-vector");
        let _: SharerSet = DirectoryId::FullMap.instantiate(SystemSize::new(16).unwrap());
        let cfg = SystemConfig::builder(16)
            .protocol(ProtocolId::Dragon)
            .kind(ProtocolKind::Queuing)
            .directory(DirectoryId::FullMap)
            .build()
            .unwrap();
        assert_eq!(cfg.coherence, ProtocolId::Dragon);
        assert_eq!(cfg.directory, DirectoryId::FullMap);
        let _: AccessDecision = rules.classify(MemOp::Load, CacheState::Shared);
    }
}
