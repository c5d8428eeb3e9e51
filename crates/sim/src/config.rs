//! Machine configuration.

use cenju4_des::Duration;
use cenju4_directory::{DirectoryId, SystemSize, SystemSizeError};
use cenju4_network::{FaultPlan, MulticastMode, NetParams};
use cenju4_protocol::{Engine, ProtoParams, ProtocolId, ProtocolKind, RecoveryParams};
use core::fmt;

/// Why [`SystemConfigBuilder::build`] rejected a configuration.
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
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<SystemSizeError> for ConfigError {
    fn from(e: SystemSizeError) -> Self {
        ConfigError::Size(e)
    }
}

/// The full protocol selection: the coherence decision logic
/// ([`ProtocolId`] — MESI or Dragon) and the home's service discipline
/// ([`ProtocolKind`] — queuing or the nack baseline).
///
/// [`SystemConfigBuilder::protocol`] accepts anything convertible into a
/// spec, so legacy call sites keep compiling unchanged:
///
/// * a bare [`ProtocolKind`] selects that discipline under MESI;
/// * a bare [`ProtocolId`] selects that coherence logic over the
///   queuing home;
/// * a `(ProtocolId, ProtocolKind)` pair selects both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// The coherence protocol's decision logic.
    pub id: ProtocolId,
    /// The home's service discipline.
    pub kind: ProtocolKind,
}

impl From<ProtocolKind> for ProtocolSpec {
    fn from(kind: ProtocolKind) -> Self {
        ProtocolSpec {
            id: ProtocolId::default(),
            kind,
        }
    }
}

impl From<ProtocolId> for ProtocolSpec {
    fn from(id: ProtocolId) -> Self {
        ProtocolSpec {
            id,
            kind: ProtocolKind::default(),
        }
    }
}

impl From<(ProtocolId, ProtocolKind)> for ProtocolSpec {
    fn from((id, kind): (ProtocolId, ProtocolKind)) -> Self {
        ProtocolSpec { id, kind }
    }
}

/// A complete machine configuration: size, network and protocol
/// parameters, and the protocol variant.
///
/// # Examples
///
/// ```
/// use cenju4_sim::SystemConfig;
///
/// let cfg = SystemConfig::new(128)?.without_multicast();
/// assert_eq!(cfg.sys.nodes(), 128);
/// # Ok::<(), cenju4_directory::SystemSizeError>(())
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
    /// use cenju4_sim::SystemConfig;
    ///
    /// let cfg = SystemConfig::builder(128).nack_protocol().build()?;
    /// assert_eq!(cfg.sys.nodes(), 128);
    /// # Ok::<(), cenju4_sim::ConfigError>(())
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

    /// A default-calibrated machine of `nodes` nodes. Thin wrapper around
    /// [`SystemConfig::builder`].
    ///
    /// # Errors
    ///
    /// Returns [`SystemSizeError`] for invalid node counts.
    pub fn new(nodes: u16) -> Result<Self, SystemSizeError> {
        SystemConfig::builder(nodes).build().map_err(|e| match e {
            ConfigError::Size(s) => s,
            other => unreachable!("default parameters rejected: {other}"),
        })
    }

    /// The same machine with the multicast/gather hardware disabled.
    pub fn without_multicast(&self) -> Self {
        let mut cfg = self.clone();
        cfg.net = NetParams {
            multicast: cenju4_network::MulticastMode::SinglecastEmulation,
            ..cfg.net
        };
        cfg
    }

    /// The same machine running the nack baseline protocol.
    pub fn with_nack_protocol(&self) -> Self {
        let mut cfg = self.clone();
        cfg.kind = ProtocolKind::Nack;
        cfg
    }

    /// Builds a fresh engine for this configuration, installing the
    /// fault plan and recovery parameters.
    pub fn build(&self) -> Engine {
        let mut eng = Engine::new(self.sys, self.proto, self.net, self.kind);
        eng.set_coherence(self.coherence);
        eng.set_directory(self.directory);
        eng.set_recovery(self.recovery);
        eng.set_fault_plan(self.fault.clone());
        eng
    }

    /// A canonical 64-bit fingerprint of the configuration, built on the
    /// engine's digest machinery (the deterministic in-repo
    /// [`FxHasher`](cenju4_des::FxHasher) — no random state, so
    /// fingerprints are stable across processes and hosts). Two configs
    /// fingerprint equal iff they are semantically equal: the builder
    /// normalizes as it goes, so call order never matters, and every
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
    /// use cenju4_sim::SystemConfig;
    ///
    /// let cfg = SystemConfig::builder(16)
    ///     .multicast(MulticastMode::SinglecastEmulation)
    ///     .build()?;
    /// assert_eq!(cfg.net.multicast, MulticastMode::SinglecastEmulation);
    /// # Ok::<(), cenju4_sim::ConfigError>(())
    /// ```
    pub fn multicast(mut self, mode: MulticastMode) -> Self {
        self.net.multicast = mode;
        self
    }

    /// Disables the multicast/gather hardware (shorthand for
    /// [`SystemConfigBuilder::multicast`] with singlecast emulation).
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_network::MulticastMode;
    /// use cenju4_sim::SystemConfig;
    ///
    /// let cfg = SystemConfig::builder(16).without_multicast().build()?;
    /// assert_eq!(cfg.net.multicast, MulticastMode::SinglecastEmulation);
    /// # Ok::<(), cenju4_sim::ConfigError>(())
    /// ```
    pub fn without_multicast(self) -> Self {
        self.multicast(MulticastMode::SinglecastEmulation)
    }

    /// Selects the protocol: the home's service discipline
    /// ([`ProtocolKind`]), the coherence decision logic ([`ProtocolId`]),
    /// or both via a `(id, kind)` pair — see [`ProtocolSpec`].
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_protocol::{ProtocolId, ProtocolKind};
    /// use cenju4_sim::SystemConfig;
    ///
    /// let cfg = SystemConfig::builder(16).protocol(ProtocolKind::Nack).build()?;
    /// assert_eq!(cfg.kind, ProtocolKind::Nack);
    /// let cfg = SystemConfig::builder(16).protocol(ProtocolId::Dragon).build()?;
    /// assert_eq!(cfg.coherence, ProtocolId::Dragon);
    /// assert_eq!(cfg.kind, ProtocolKind::Queuing);
    /// # Ok::<(), cenju4_sim::ConfigError>(())
    /// ```
    pub fn protocol(mut self, spec: impl Into<ProtocolSpec>) -> Self {
        let spec = spec.into();
        self.coherence = spec.id;
        self.kind = spec.kind;
        self
    }

    /// Selects the directory format the homes keep their sharer sets in
    /// (the paper's pointer↔bit-pattern entry by default).
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_directory::DirectoryId;
    /// use cenju4_sim::SystemConfig;
    ///
    /// let cfg = SystemConfig::builder(16)
    ///     .directory(DirectoryId::FullMap)
    ///     .build()?;
    /// assert_eq!(cfg.directory, DirectoryId::FullMap);
    /// # Ok::<(), cenju4_sim::ConfigError>(())
    /// ```
    pub fn directory(mut self, id: DirectoryId) -> Self {
        self.directory = id;
        self
    }

    /// Selects the DASH-style nack baseline (shorthand for
    /// [`SystemConfigBuilder::protocol`] with [`ProtocolKind::Nack`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_protocol::ProtocolKind;
    /// use cenju4_sim::SystemConfig;
    ///
    /// let cfg = SystemConfig::builder(16).nack_protocol().build()?;
    /// assert_eq!(cfg.kind, ProtocolKind::Nack);
    /// # Ok::<(), cenju4_sim::ConfigError>(())
    /// ```
    pub fn nack_protocol(self) -> Self {
        self.protocol(ProtocolKind::Nack)
    }

    /// Sets the one-way MPI latency of the cost model (the paper measured
    /// 9.1 µs on 128 nodes).
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_des::Duration;
    /// use cenju4_sim::SystemConfig;
    ///
    /// let cfg = SystemConfig::builder(16)
    ///     .mpi_latency(Duration::from_us(5))
    ///     .build()?;
    /// assert_eq!(cfg.mpi_latency.as_ns(), 5_000);
    /// # Ok::<(), cenju4_sim::ConfigError>(())
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
    /// use cenju4_sim::{ConfigError, SystemConfig};
    ///
    /// let cfg = SystemConfig::builder(16).mpi_bandwidth(200).build()?;
    /// assert_eq!(cfg.mpi_bytes_per_us, 200);
    /// let err = SystemConfig::builder(16).mpi_bandwidth(0).build();
    /// assert_eq!(err.unwrap_err(), ConfigError::ZeroMpiBandwidth);
    /// # Ok::<(), cenju4_sim::ConfigError>(())
    /// ```
    pub fn mpi_bandwidth(mut self, bytes_per_us: u64) -> Self {
        self.mpi_bytes_per_us = bytes_per_us;
        self
    }

    /// Replaces the full network parameter set (later
    /// [`SystemConfigBuilder::multicast`] calls still apply on top).
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_network::NetParams;
    /// use cenju4_sim::SystemConfig;
    ///
    /// let net = NetParams::default();
    /// let cfg = SystemConfig::builder(16).net(net).build()?;
    /// assert_eq!(cfg.net, net);
    /// # Ok::<(), cenju4_sim::ConfigError>(())
    /// ```
    pub fn net(mut self, net: NetParams) -> Self {
        self.net = net;
        self
    }

    /// Replaces the full protocol parameter set (service times, cache
    /// geometry, queue capacities). Zero `max_outstanding` or
    /// `home_queue_capacity` is rejected at build time.
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_protocol::ProtoParams;
    /// use cenju4_sim::SystemConfig;
    ///
    /// let proto = ProtoParams {
    ///     max_outstanding: 2,
    ///     ..ProtoParams::default()
    /// };
    /// let cfg = SystemConfig::builder(16).proto(proto).build()?;
    /// assert_eq!(cfg.proto.max_outstanding, 2);
    /// # Ok::<(), cenju4_sim::ConfigError>(())
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
    /// use cenju4_sim::SystemConfig;
    ///
    /// let cfg = SystemConfig::builder(16)
    ///     .fault_plan(FaultPlan::random(42, 10))
    ///     .build()?;
    /// assert!(!cfg.fault.is_none());
    /// # Ok::<(), cenju4_sim::ConfigError>(())
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
    /// use cenju4_protocol::RecoveryParams;
    /// use cenju4_sim::SystemConfig;
    ///
    /// let cfg = SystemConfig::builder(16)
    ///     .recovery(RecoveryParams::disabled())
    ///     .build()?;
    /// assert!(!cfg.recovery.enabled);
    /// # Ok::<(), cenju4_sim::ConfigError>(())
    /// ```
    pub fn recovery(mut self, rec: RecoveryParams) -> Self {
        self.recovery = rec;
        self
    }

    /// Sets the stall-watchdog threshold: how long the engine lets the
    /// clock advance without any access completing (while work is
    /// outstanding) before reporting a stall once via `Observer::on_stall`.
    /// `Duration::ZERO` disables the watchdog.
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_des::Duration;
    /// use cenju4_sim::SystemConfig;
    ///
    /// let cfg = SystemConfig::builder(16)
    ///     .watchdog(Duration::from_us(50_000))
    ///     .build()?;
    /// assert_eq!(cfg.recovery.watchdog.as_ns(), 50_000_000);
    /// # Ok::<(), cenju4_sim::ConfigError>(())
    /// ```
    pub fn watchdog(mut self, threshold: Duration) -> Self {
        self.recovery.watchdog = threshold;
        self
    }

    /// Sets the failure detector's heartbeat/probe interval: how long
    /// after a node is suspected the engine probes it to decide between
    /// spurious suspicion and quarantine (also the rejoin handshake
    /// delay). Zero is rejected at build time.
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_des::Duration;
    /// use cenju4_sim::{ConfigError, SystemConfig};
    ///
    /// let cfg = SystemConfig::builder(16)
    ///     .heartbeat(Duration::from_us(250))
    ///     .build()?;
    /// assert_eq!(cfg.recovery.heartbeat_every.as_ns(), 250_000);
    /// let err = SystemConfig::builder(16).heartbeat(Duration::ZERO).build();
    /// assert_eq!(err.unwrap_err(), ConfigError::ZeroHeartbeat);
    /// # Ok::<(), cenju4_sim::ConfigError>(())
    /// ```
    pub fn heartbeat(mut self, every: Duration) -> Self {
        self.recovery.heartbeat_every = every;
        self
    }

    /// Validates the configuration and produces the [`SystemConfig`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the node count is out of range, the
    /// MPI bandwidth is zero, or a protocol capacity is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_sim::{ConfigError, SystemConfig};
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

    #[test]
    fn defaults_are_queuing_with_multicast() {
        let c = SystemConfig::new(16).unwrap();
        assert_eq!(c.kind, ProtocolKind::Queuing);
        assert_eq!(c.net.multicast, cenju4_network::MulticastMode::Hardware);
    }

    #[test]
    fn ablation_switches() {
        let c = SystemConfig::new(16)
            .unwrap()
            .without_multicast()
            .with_nack_protocol();
        assert_eq!(c.kind, ProtocolKind::Nack);
        assert_eq!(
            c.net.multicast,
            cenju4_network::MulticastMode::SinglecastEmulation
        );
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
    fn watchdog_and_heartbeat_knobs_validate() {
        let cfg = SystemConfig::builder(16)
            .watchdog(Duration::from_us(25_000))
            .heartbeat(Duration::from_us(400))
            .build()
            .unwrap();
        assert_eq!(cfg.recovery.watchdog, Duration::from_us(25_000));
        assert_eq!(cfg.recovery.heartbeat_every, Duration::from_us(400));
        // A zero watchdog is legal — it disables the stall report.
        assert!(SystemConfig::builder(16)
            .watchdog(Duration::ZERO)
            .build()
            .is_ok());
        assert_eq!(
            SystemConfig::builder(16)
                .heartbeat(Duration::ZERO)
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
    fn builder_matches_legacy_constructors() {
        let a = SystemConfig::new(64).unwrap().without_multicast();
        let b = SystemConfig::builder(64)
            .without_multicast()
            .build()
            .unwrap();
        assert_eq!(a.net, b.net);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.mpi_latency, b.mpi_latency);
    }

    #[test]
    fn dragon_rejects_the_nack_baseline() {
        assert_eq!(
            SystemConfig::builder(16)
                .protocol((ProtocolId::Dragon, ProtocolKind::Nack))
                .build()
                .unwrap_err(),
            ConfigError::DragonNeedsQueuing
        );
        let cfg = SystemConfig::builder(16)
            .protocol(ProtocolId::Dragon)
            .build()
            .unwrap();
        assert_eq!(cfg.kind, ProtocolKind::Queuing);
        assert_eq!(cfg.build().coherence(), ProtocolId::Dragon);
    }

    #[test]
    fn protocol_and_directory_flow_into_the_engine() {
        let cfg = SystemConfig::builder(16)
            .directory(DirectoryId::CoarseVector)
            .build()
            .unwrap();
        let eng = cfg.build();
        assert_eq!(eng.coherence(), ProtocolId::Mesi);
        assert_eq!(eng.directory_format(), DirectoryId::CoarseVector);
        // The defaults reproduce the paper's machine.
        let cfg = SystemConfig::new(16).unwrap();
        assert_eq!(cfg.coherence, ProtocolId::Mesi);
        assert_eq!(cfg.directory, DirectoryId::PointerPattern);
    }

    #[test]
    fn barrier_grows_with_machine() {
        let b16 = SystemConfig::new(16).unwrap().barrier_cost();
        let b128 = SystemConfig::new(128).unwrap().barrier_cost();
        assert!(b128 > b16);
    }
}
