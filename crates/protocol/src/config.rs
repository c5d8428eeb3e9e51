//! Machine configuration.

use crate::cache::Cache;
use crate::coherence::ProtocolId;
use crate::params::{ProtoParams, ProtocolKind, RecoveryParams};
use cenju4_des::Duration;
use cenju4_directory::{DirectoryId, SystemSize, SystemSizeError};
use cenju4_network::{FaultPlan, MulticastMode, NetParams};
use core::fmt;

/// Why [`SystemConfigBuilder::build`] rejected a configuration, or (for
/// [`ConfigError::ArrayTooLarge`]) why a workload cannot be laid out on
/// the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The node count is outside the machine's 2..=1024 range.
    Size(SystemSizeError),
    /// The MPI bandwidth is zero — every transfer would take forever.
    ZeroMpiBandwidth,
    /// The per-master outstanding-request bound is zero — no access could
    /// ever be issued.
    ZeroOutstanding,
    /// The home main-memory request queue has no capacity — the queuing
    /// protocol could not park a single request.
    ZeroHomeQueue,
    /// The update-based Dragon protocol was combined with the nack
    /// baseline — Dragon's write-through pushes rely on the queuing
    /// home's pending states, so only [`ProtocolKind::Queuing`] can
    /// carry it.
    DragonNeedsQueuing,
    /// The failure detector's heartbeat/probe interval is zero — a
    /// suspicion probe would fire in the same instant it was scheduled
    /// and the detector could never observe the fabric settle.
    ZeroHeartbeat,
    /// The failure detector's suspicion threshold is zero — every first
    /// retransmission would immediately suspect both link endpoints,
    /// turning any transient frame loss into a node-level event.
    ZeroSuspectThreshold,
    /// The secondary cache's capacity is not a whole number of between
    /// one and 65,535 sets of `cache_assoc` 128-byte lines (zero
    /// associativity included).
    CacheGeometry,
    /// A workload's shared array needs more blocks than a shared array's
    /// address field holds: the problem scale is too large for the
    /// application.
    ArrayTooLarge {
        /// The blocks the array needs.
        blocks: u32,
        /// The most blocks one shared array can hold.
        max: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Size(e) => write!(f, "{e}"),
            ConfigError::ZeroMpiBandwidth => f.write_str("MPI bandwidth must be non-zero"),
            ConfigError::ZeroOutstanding => {
                f.write_str("per-master outstanding-request bound must be non-zero")
            }
            ConfigError::ZeroHomeQueue => {
                f.write_str("home request-queue capacity must be non-zero")
            }
            ConfigError::DragonNeedsQueuing => {
                f.write_str("the dragon protocol requires the queuing home (not the nack baseline)")
            }
            ConfigError::ZeroHeartbeat => {
                f.write_str("failure-detector heartbeat interval must be non-zero")
            }
            ConfigError::ZeroSuspectThreshold => {
                f.write_str("failure-detector suspicion threshold must be non-zero")
            }
            ConfigError::CacheGeometry => f.write_str(
                "cache capacity must be a whole number of 1 to 65535 sets of cache_assoc 128-byte lines",
            ),
            ConfigError::ArrayTooLarge { blocks, max } => write!(
                f,
                "shared array of {blocks} blocks exceeds the {max}-block limit; lower the scale"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<SystemSizeError> for ConfigError {
    fn from(e: SystemSizeError) -> Self {
        ConfigError::Size(e)
    }
}

/// A complete machine configuration: size, network and protocol
/// parameters, and the protocol variant. Built and validated by
/// [`SystemConfig::builder`]; [`Engine::new`](crate::Engine::new) is the
/// one way to turn it into a machine.
///
/// # Examples
///
/// ```
/// use cenju4_network::MulticastMode;
/// use cenju4_protocol::SystemConfig;
///
/// let cfg = SystemConfig::builder(128)
///     .multicast(MulticastMode::SinglecastEmulation)
///     .build()?;
/// assert_eq!(cfg.sys.nodes(), 128);
/// # Ok::<(), cenju4_protocol::ConfigError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    /// Machine size.
    pub sys: SystemSize,
    /// Network timing parameters (and the multicast ablation switch).
    pub net: NetParams,
    /// Protocol service times and geometry.
    pub proto: ProtoParams,
    /// Queuing protocol or the nack baseline.
    pub kind: ProtocolKind,
    /// Coherence decision logic (MESI or Dragon).
    pub coherence: ProtocolId,
    /// Directory format fresh entries are created in.
    pub directory: DirectoryId,
    /// Cost model for MPI-library operations (used for barriers and the
    /// message-passing comparison): one-way latency. The paper reports
    /// 9.1 µs latency and 169 MB/s bandwidth on 128 nodes.
    pub mpi_latency: Duration,
    /// MPI bandwidth in bytes per microsecond (169 MB/s = 169 B/µs).
    pub mpi_bytes_per_us: u64,
    /// Deterministic fabric fault plan ([`FaultPlan::none`] by default —
    /// a lossless network, as the paper assumes).
    pub fault: FaultPlan,
    /// Recovery-layer configuration. Only acts when `fault` is
    /// non-trivial; with a lossless fabric the layer is elided entirely
    /// and traces are bit-identical to a recovery-less build.
    pub recovery: RecoveryParams,
}

impl SystemConfig {
    /// Starts a validating builder for a machine of `nodes` nodes. All
    /// other parameters default to the paper's calibration; validation
    /// happens once, in [`SystemConfigBuilder::build`].
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_protocol::{ProtocolKind, SystemConfig};
    ///
    /// let cfg = SystemConfig::builder(128).kind(ProtocolKind::Nack).build()?;
    /// assert_eq!(cfg.sys.nodes(), 128);
    /// # Ok::<(), cenju4_protocol::ConfigError>(())
    /// ```
    pub fn builder(nodes: u16) -> SystemConfigBuilder {
        SystemConfigBuilder {
            nodes,
            net: NetParams::default(),
            proto: ProtoParams::default(),
            kind: ProtocolKind::Queuing,
            coherence: ProtocolId::Mesi,
            directory: DirectoryId::PointerPattern,
            mpi_latency: Duration::from_us(9) + Duration::from_ns(100),
            mpi_bytes_per_us: 169,
            fault: FaultPlan::none(),
            recovery: RecoveryParams::default(),
        }
    }

    /// A canonical 64-bit fingerprint of the configuration, built on the
    /// engine's digest machinery (the deterministic in-repo
    /// [`FxHasher`](cenju4_des::FxHasher) — no random state, so
    /// fingerprints are stable across processes and hosts). Two configs
    /// fingerprint equal iff they are semantically equal: each builder
    /// setter sets one field, so call order never matters, and every
    /// knob — sizes, timings, protocol/directory selection, fault plan,
    /// recovery — feeds the digest. `cenju4-serve` keys its
    /// result cache and request-coalescing map on this value.
    pub fn fingerprint(&self) -> u64 {
        use cenju4_des::FxHasher;
        use std::hash::{Hash, Hasher};
        let mut h = FxHasher::default();
        // Domain tag + format version: bump when the digested surface
        // changes shape, so stale external caches cannot alias.
        (0xC4A6_u64, 1u32).hash(&mut h);
        self.hash(&mut h);
        // The retired worker configuration's default `(workers, min_batch)`
        // was the last hashed field; keep it so every fingerprint is unchanged.
        (1usize, 64usize).hash(&mut h);
        h.finish()
    }

    /// [`SystemConfig::fingerprint`] as a fixed-width lowercase hex
    /// string — the external cache-key form `cenju4-serve` reports.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// The modeled time to ship `bytes` over MPI: latency + size/bandwidth.
    pub fn mpi_transfer(&self, bytes: u64) -> Duration {
        self.mpi_latency + Duration::from_ns(bytes * 1_000 / self.mpi_bytes_per_us)
    }

    /// The modeled cost of a barrier over `n` nodes: a tree of MPI
    /// messages, `2·ceil(log2 n)` one-way latencies (up and down the tree).
    pub fn barrier_cost(&self) -> Duration {
        let n = self.sys.nodes().max(2) as u32;
        let levels = 32 - (n - 1).leading_zeros();
        self.mpi_latency * (2 * levels) as u64
    }
}

/// Validating builder for [`SystemConfig`], started with
/// [`SystemConfig::builder`]. Setters never fail; [`SystemConfigBuilder::build`]
/// validates everything at once and returns a typed [`ConfigError`].
#[derive(Clone, Debug)]
pub struct SystemConfigBuilder {
    nodes: u16,
    net: NetParams,
    proto: ProtoParams,
    kind: ProtocolKind,
    coherence: ProtocolId,
    directory: DirectoryId,
    mpi_latency: Duration,
    mpi_bytes_per_us: u64,
    fault: FaultPlan,
    recovery: RecoveryParams,
}

impl SystemConfigBuilder {
    /// Selects the network's multicast mode (hardware multicast/gather vs
    /// singlecast emulation — the Figure 10 ablation).
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_network::MulticastMode;
    /// use cenju4_protocol::SystemConfig;
    ///
    /// let cfg = SystemConfig::builder(16)
    ///     .multicast(MulticastMode::SinglecastEmulation)
    ///     .build()?;
    /// assert_eq!(cfg.net.multicast, MulticastMode::SinglecastEmulation);
    /// # Ok::<(), cenju4_protocol::ConfigError>(())
    /// ```
    pub fn multicast(mut self, mode: MulticastMode) -> Self {
        self.net.multicast = mode;
        self
    }

    /// Selects the coherence protocol's decision logic (MESI by default,
    /// or the update-based Dragon).
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_protocol::{ProtocolId, ProtocolKind, SystemConfig};
    ///
    /// let cfg = SystemConfig::builder(16).protocol(ProtocolId::Dragon).build()?;
    /// assert_eq!(cfg.coherence, ProtocolId::Dragon);
    /// assert_eq!(cfg.kind, ProtocolKind::Queuing);
    /// # Ok::<(), cenju4_protocol::ConfigError>(())
    /// ```
    pub fn protocol(mut self, id: ProtocolId) -> Self {
        self.coherence = id;
        self
    }

    /// Selects the home's service discipline: the paper's queuing home
    /// (the default) or the DASH-style nack baseline. Dragon needs the
    /// queuing home; [`SystemConfigBuilder::build`] rejects the pair.
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_protocol::{ConfigError, ProtocolId, ProtocolKind, SystemConfig};
    ///
    /// let cfg = SystemConfig::builder(16).kind(ProtocolKind::Nack).build()?;
    /// assert_eq!(cfg.kind, ProtocolKind::Nack);
    /// let err = SystemConfig::builder(16)
    ///     .kind(ProtocolKind::Nack)
    ///     .protocol(ProtocolId::Dragon)
    ///     .build();
    /// assert_eq!(err.unwrap_err(), ConfigError::DragonNeedsQueuing);
    /// # Ok::<(), cenju4_protocol::ConfigError>(())
    /// ```
    pub fn kind(mut self, kind: ProtocolKind) -> Self {
        self.kind = kind;
        self
    }

    /// Selects the directory format the homes keep their sharer sets in
    /// (the paper's pointer↔bit-pattern entry by default).
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_directory::DirectoryId;
    /// use cenju4_protocol::SystemConfig;
    ///
    /// let cfg = SystemConfig::builder(16)
    ///     .directory(DirectoryId::FullMap)
    ///     .build()?;
    /// assert_eq!(cfg.directory, DirectoryId::FullMap);
    /// # Ok::<(), cenju4_protocol::ConfigError>(())
    /// ```
    pub fn directory(mut self, id: DirectoryId) -> Self {
        self.directory = id;
        self
    }

    /// Sets the one-way MPI latency of the cost model (the paper measured
    /// 9.1 µs on 128 nodes).
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_des::Duration;
    /// use cenju4_protocol::SystemConfig;
    ///
    /// let cfg = SystemConfig::builder(16)
    ///     .mpi_latency(Duration::from_us(5))
    ///     .build()?;
    /// assert_eq!(cfg.mpi_latency.as_ns(), 5_000);
    /// # Ok::<(), cenju4_protocol::ConfigError>(())
    /// ```
    pub fn mpi_latency(mut self, latency: Duration) -> Self {
        self.mpi_latency = latency;
        self
    }

    /// Sets the MPI bandwidth in bytes per microsecond (the paper measured
    /// 169 MB/s = 169 B/µs). Zero is rejected at build time.
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_protocol::{ConfigError, SystemConfig};
    ///
    /// let cfg = SystemConfig::builder(16).mpi_bandwidth(200).build()?;
    /// assert_eq!(cfg.mpi_bytes_per_us, 200);
    /// let err = SystemConfig::builder(16).mpi_bandwidth(0).build();
    /// assert_eq!(err.unwrap_err(), ConfigError::ZeroMpiBandwidth);
    /// # Ok::<(), cenju4_protocol::ConfigError>(())
    /// ```
    pub fn mpi_bandwidth(mut self, bytes_per_us: u64) -> Self {
        self.mpi_bytes_per_us = bytes_per_us;
        self
    }

    /// Replaces the full protocol parameter set (service times, cache
    /// geometry, queue capacities). Zero `max_outstanding` or
    /// `home_queue_capacity` is rejected at build time.
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_protocol::{ProtoParams, SystemConfig};
    ///
    /// let proto = ProtoParams {
    ///     max_outstanding: 2,
    ///     ..ProtoParams::default()
    /// };
    /// let cfg = SystemConfig::builder(16).proto(proto).build()?;
    /// assert_eq!(cfg.proto.max_outstanding, 2);
    /// # Ok::<(), cenju4_protocol::ConfigError>(())
    /// ```
    pub fn proto(mut self, proto: ProtoParams) -> Self {
        self.proto = proto;
        self
    }

    /// Installs a deterministic fabric fault plan — the unreliable-fabric
    /// mode. The default is [`FaultPlan::none`] (lossless, as the paper
    /// assumes).
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_network::FaultPlan;
    /// use cenju4_protocol::SystemConfig;
    ///
    /// let cfg = SystemConfig::builder(16)
    ///     .fault_plan(FaultPlan::random(42, 10))
    ///     .build()?;
    /// assert!(!cfg.fault.is_none());
    /// # Ok::<(), cenju4_protocol::ConfigError>(())
    /// ```
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Configures the recovery layer (link-level ACK/retransmit, gather
    /// re-issue, transaction escalation, stall watchdog). Only acts when
    /// a non-trivial fault plan is installed.
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_protocol::{RecoveryParams, SystemConfig};
    ///
    /// let cfg = SystemConfig::builder(16)
    ///     .recovery(RecoveryParams::disabled())
    ///     .build()?;
    /// assert!(!cfg.recovery.enabled);
    /// # Ok::<(), cenju4_protocol::ConfigError>(())
    /// ```
    pub fn recovery(mut self, rec: RecoveryParams) -> Self {
        self.recovery = rec;
        self
    }

    /// Validates the configuration and produces the [`SystemConfig`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the node count is out of range, the
    /// MPI bandwidth is zero, a protocol capacity is zero, or the cache
    /// geometry does not divide into sets.
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_protocol::{ConfigError, SystemConfig};
    ///
    /// assert!(SystemConfig::builder(16).build().is_ok());
    /// assert!(matches!(
    ///     SystemConfig::builder(1).build(),
    ///     Err(ConfigError::Size(_))
    /// ));
    /// ```
    pub fn build(self) -> Result<SystemConfig, ConfigError> {
        let sys = SystemSize::new(self.nodes)?;
        if self.mpi_bytes_per_us == 0 {
            return Err(ConfigError::ZeroMpiBandwidth);
        }
        if self.proto.max_outstanding == 0 {
            return Err(ConfigError::ZeroOutstanding);
        }
        if self.proto.home_queue_capacity == 0 {
            return Err(ConfigError::ZeroHomeQueue);
        }
        if Cache::sets_for(self.proto.cache_bytes, self.proto.cache_assoc).is_none() {
            return Err(ConfigError::CacheGeometry);
        }
        if self.coherence == ProtocolId::Dragon && self.kind == ProtocolKind::Nack {
            return Err(ConfigError::DragonNeedsQueuing);
        }
        if self.recovery.heartbeat_every.as_ns() == 0 {
            return Err(ConfigError::ZeroHeartbeat);
        }
        if self.recovery.suspect_after == 0 {
            return Err(ConfigError::ZeroSuspectThreshold);
        }
        Ok(SystemConfig {
            sys,
            net: self.net,
            proto: self.proto,
            kind: self.kind,
            coherence: self.coherence,
            directory: self.directory,
            mpi_latency: self.mpi_latency,
            mpi_bytes_per_us: self.mpi_bytes_per_us,
            fault: self.fault,
            recovery: self.recovery,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    #[test]
    fn defaults_are_queuing_with_multicast() {
        let c = SystemConfig::builder(16).build().unwrap();
        assert_eq!(c.kind, ProtocolKind::Queuing);
        assert_eq!(c.net.multicast, MulticastMode::Hardware);
    }

    #[test]
    fn ablation_switches() {
        let c = SystemConfig::builder(16)
            .multicast(MulticastMode::SinglecastEmulation)
            .kind(ProtocolKind::Nack)
            .build()
            .unwrap();
        assert_eq!(c.kind, ProtocolKind::Nack);
        assert_eq!(c.net.multicast, MulticastMode::SinglecastEmulation);
    }

    #[test]
    fn builder_validates_capacities() {
        let zero_out = ProtoParams {
            max_outstanding: 0,
            ..ProtoParams::default()
        };
        assert_eq!(
            SystemConfig::builder(16)
                .proto(zero_out)
                .build()
                .unwrap_err(),
            ConfigError::ZeroOutstanding
        );
        let zero_q = ProtoParams {
            home_queue_capacity: 0,
            ..ProtoParams::default()
        };
        assert_eq!(
            SystemConfig::builder(16).proto(zero_q).build().unwrap_err(),
            ConfigError::ZeroHomeQueue
        );
        assert_eq!(
            SystemConfig::builder(16)
                .mpi_bandwidth(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroMpiBandwidth
        );
    }

    #[test]
    fn builder_validates_cache_geometry() {
        let build = |cache_bytes, cache_assoc| {
            SystemConfig::builder(16)
                .proto(ProtoParams {
                    cache_bytes,
                    cache_assoc,
                    ..ProtoParams::default()
                })
                .build()
        };
        for (bytes, assoc) in [
            (1 << 20, 0),               // no ways
            (0, 4),                     // no sets
            (2 * 128, 4),               // less than one set
            (3 * 4 * 128 + 128, 4),     // not a whole number of sets
            (1000, 1),                  // not a whole number of lines
            (65_536 * 128, 1),          // more sets than the index numbers
            (1 << 20, usize::MAX / 64), // set size overflows
        ] {
            assert_eq!(
                build(bytes, assoc).unwrap_err(),
                ConfigError::CacheGeometry,
                "{bytes} bytes, {assoc}-way"
            );
        }
        for (bytes, assoc) in [(1 << 20, 4), (3 * 4 * 128, 4), (65_535 * 128, 1), (128, 1)] {
            // Accepted geometries build a machine without panicking.
            Engine::new(&build(bytes, assoc).unwrap());
        }
    }

    #[test]
    fn watchdog_and_heartbeat_knobs_validate() {
        let cfg = SystemConfig::builder(16)
            .recovery(RecoveryParams {
                watchdog: Duration::from_us(25_000),
                heartbeat_every: Duration::from_us(400),
                ..RecoveryParams::default()
            })
            .build()
            .unwrap();
        assert_eq!(cfg.recovery.watchdog, Duration::from_us(25_000));
        assert_eq!(cfg.recovery.heartbeat_every, Duration::from_us(400));
        // A zero watchdog is legal — it disables the stall report.
        let zero_watchdog = RecoveryParams {
            watchdog: Duration::ZERO,
            ..RecoveryParams::default()
        };
        assert!(SystemConfig::builder(16)
            .recovery(zero_watchdog)
            .build()
            .is_ok());
        let zero_heartbeat = RecoveryParams {
            heartbeat_every: Duration::ZERO,
            ..RecoveryParams::default()
        };
        assert_eq!(
            SystemConfig::builder(16)
                .recovery(zero_heartbeat)
                .build()
                .unwrap_err(),
            ConfigError::ZeroHeartbeat
        );
        let zero_suspect = RecoveryParams {
            suspect_after: 0,
            ..RecoveryParams::default()
        };
        assert_eq!(
            SystemConfig::builder(16)
                .recovery(zero_suspect)
                .build()
                .unwrap_err(),
            ConfigError::ZeroSuspectThreshold
        );
    }

    #[test]
    fn each_setter_changes_only_its_field() {
        let base = SystemConfig::builder(64).build().unwrap();
        let mut expect = base.clone();
        expect.net.multicast = MulticastMode::SinglecastEmulation;
        let got = SystemConfig::builder(64)
            .multicast(MulticastMode::SinglecastEmulation)
            .build()
            .unwrap();
        assert_eq!(got, expect);
        let mut expect = base.clone();
        expect.kind = ProtocolKind::Nack;
        let got = SystemConfig::builder(64)
            .kind(ProtocolKind::Nack)
            .build()
            .unwrap();
        assert_eq!(got, expect);
        let mut expect = base;
        expect.coherence = ProtocolId::Dragon;
        let got = SystemConfig::builder(64)
            .protocol(ProtocolId::Dragon)
            .build()
            .unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn dragon_rejects_the_nack_baseline() {
        assert_eq!(
            SystemConfig::builder(16)
                .protocol(ProtocolId::Dragon)
                .kind(ProtocolKind::Nack)
                .build()
                .unwrap_err(),
            ConfigError::DragonNeedsQueuing
        );
        let cfg = SystemConfig::builder(16)
            .protocol(ProtocolId::Dragon)
            .build()
            .unwrap();
        assert_eq!(cfg.kind, ProtocolKind::Queuing);
        assert_eq!(Engine::new(&cfg).coherence(), ProtocolId::Dragon);
    }

    #[test]
    fn protocol_and_directory_flow_into_the_engine() {
        let cfg = SystemConfig::builder(16)
            .directory(DirectoryId::CoarseVector)
            .build()
            .unwrap();
        let eng = Engine::new(&cfg);
        assert_eq!(eng.coherence(), ProtocolId::Mesi);
        assert_eq!(eng.directory_format(), DirectoryId::CoarseVector);
        // The defaults reproduce the paper's machine.
        let cfg = SystemConfig::builder(16).build().unwrap();
        assert_eq!(cfg.coherence, ProtocolId::Mesi);
        assert_eq!(cfg.directory, DirectoryId::PointerPattern);
    }

    #[test]
    fn barrier_grows_with_machine() {
        let cost = |n| SystemConfig::builder(n).build().unwrap().barrier_cost();
        assert!(cost(128) > cost(16));
    }
}
