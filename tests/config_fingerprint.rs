//! Canonical configuration fingerprints: the dedup key the service
//! builds on. Two guarantees matter — *stability* (the same semantic
//! configuration hashes identically no matter how the builder was
//! driven) and *sensitivity* (changing any knob moves the hash).

use cenju4::prelude::*;

/// Builder call order must not matter: the fingerprint hashes the
/// resolved configuration, not the construction path. Each setter sets
/// one field, so `protocol` and `kind` commute like every other pair.
#[test]
fn builder_order_permutations_hash_identically() {
    let a = SystemConfig::builder(16)
        .protocol(ProtocolId::Mesi)
        .kind(ProtocolKind::Nack)
        .directory(DirectoryId::FullMap)
        .multicast(MulticastMode::SinglecastEmulation)
        .mpi_latency(Duration::from_ns(5000))
        .build()
        .unwrap();
    let b = SystemConfig::builder(16)
        .mpi_latency(Duration::from_ns(5000))
        .multicast(MulticastMode::SinglecastEmulation)
        .directory(DirectoryId::FullMap)
        .kind(ProtocolKind::Nack)
        .protocol(ProtocolId::Mesi)
        .build()
        .unwrap();
    let c = SystemConfig::builder(16)
        .directory(DirectoryId::FullMap)
        .kind(ProtocolKind::Nack)
        .mpi_latency(Duration::from_ns(5000))
        .protocol(ProtocolId::Mesi)
        .multicast(MulticastMode::SinglecastEmulation)
        .build()
        .unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(b.fingerprint(), c.fingerprint());
    assert_eq!(a.fingerprint_hex(), c.fingerprint_hex());
    // An invalid pair is invalid in either order.
    for cfg in [
        SystemConfig::builder(16)
            .protocol(ProtocolId::Dragon)
            .kind(ProtocolKind::Nack),
        SystemConfig::builder(16)
            .kind(ProtocolKind::Nack)
            .protocol(ProtocolId::Dragon),
    ] {
        assert_eq!(cfg.build(), Err(ConfigError::DragonNeedsQueuing));
    }
}

/// Spelling out a default explicitly is the same configuration.
#[test]
fn explicit_defaults_hash_like_omitted_defaults() {
    let implicit = SystemConfig::builder(16).build().unwrap();
    let explicit = SystemConfig::builder(16)
        .protocol(ProtocolId::Mesi)
        .directory(DirectoryId::PointerPattern)
        .build()
        .unwrap();
    assert_eq!(implicit.fingerprint(), explicit.fingerprint());
}

/// The fingerprint is a pure function: recomputing it, or computing it
/// on a clone, gives the same value.
#[test]
fn fingerprint_is_stable_across_recomputation_and_clone() {
    let cfg = SystemConfig::builder(64)
        .directory(DirectoryId::CoarseVector)
        .build()
        .unwrap();
    let f = cfg.fingerprint();
    assert_eq!(f, cfg.fingerprint());
    assert_eq!(f, cfg.clone().fingerprint());
    assert_eq!(format!("{f:016x}"), cfg.fingerprint_hex());
}

/// Every single-knob variation lands on a distinct fingerprint — the
/// service must never serve a cached answer for a different machine.
#[test]
fn every_knob_change_moves_the_fingerprint() {
    let variants: Vec<(&str, SystemConfig)> = vec![
        ("baseline", SystemConfig::builder(16).build().unwrap()),
        ("nodes", SystemConfig::builder(64).build().unwrap()),
        (
            "protocol",
            SystemConfig::builder(16)
                .protocol(ProtocolId::Dragon)
                .build()
                .unwrap(),
        ),
        (
            "directory full-map",
            SystemConfig::builder(16)
                .directory(DirectoryId::FullMap)
                .build()
                .unwrap(),
        ),
        (
            "directory limited-pointer",
            SystemConfig::builder(16)
                .directory(DirectoryId::LimitedPointer)
                .build()
                .unwrap(),
        ),
        (
            "directory coarse-vector",
            SystemConfig::builder(16)
                .directory(DirectoryId::CoarseVector)
                .build()
                .unwrap(),
        ),
        (
            "nack kind",
            SystemConfig::builder(16)
                .kind(ProtocolKind::Nack)
                .build()
                .unwrap(),
        ),
        (
            "no multicast",
            SystemConfig::builder(16)
                .multicast(MulticastMode::SinglecastEmulation)
                .build()
                .unwrap(),
        ),
        (
            "mpi latency",
            SystemConfig::builder(16)
                .mpi_latency(Duration::from_ns(5000))
                .build()
                .unwrap(),
        ),
        (
            "mpi bandwidth",
            SystemConfig::builder(16)
                .mpi_bandwidth(600)
                .build()
                .unwrap(),
        ),
        (
            "recovery retransmit budget",
            SystemConfig::builder(16)
                .recovery(RecoveryParams {
                    max_retransmits: 9,
                    ..RecoveryParams::default()
                })
                .build()
                .unwrap(),
        ),
        (
            "fault plan",
            SystemConfig::builder(16)
                .fault_plan(FaultPlan::none().with_one_shot(OneShotFault {
                    link: None,
                    class: None,
                    nth: u64::MAX,
                    kind: FaultKind::Drop,
                }))
                .build()
                .unwrap(),
        ),
    ];
    for (i, (name_a, a)) in variants.iter().enumerate() {
        for (name_b, b) in variants.iter().skip(i + 1) {
            assert_ne!(
                a.fingerprint(),
                b.fingerprint(),
                "{name_a} and {name_b} collided"
            );
        }
    }
}

/// The hex form is the wire format: fixed width, lowercase, parseable.
#[test]
fn hex_form_is_sixteen_lowercase_digits() {
    for nodes in [2u16, 16, 64, 1024] {
        let hex = SystemConfig::builder(nodes)
            .build()
            .unwrap()
            .fingerprint_hex();
        assert_eq!(hex.len(), 16);
        assert!(hex
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        assert_eq!(
            u64::from_str_radix(&hex, 16).unwrap(),
            SystemConfig::builder(nodes).build().unwrap().fingerprint()
        );
    }
}

/// Literal fingerprints of configs the service cannot express (a fault
/// plan, a disabled recovery layer, custom protocol parameters). The
/// `.scn` scenarios pin only service-reachable configs; these keep the
/// rest of the hashed surface from drifting.
#[test]
fn unreachable_from_the_service_configs_keep_their_fingerprints() {
    let pins = [
        (
            SystemConfig::builder(16)
                .fault_plan(FaultPlan::random(42, 10))
                .build()
                .unwrap(),
            "5164f2aa2ca37725",
        ),
        (
            SystemConfig::builder(16)
                .recovery(RecoveryParams::disabled())
                .build()
                .unwrap(),
            "dc5606c5f8376d83",
        ),
        (
            SystemConfig::builder(16)
                .proto(ProtoParams {
                    max_outstanding: 2,
                    ..ProtoParams::default()
                })
                .build()
                .unwrap(),
            "0c474baa065b3979",
        ),
    ];
    for (cfg, hex) in pins {
        assert_eq!(cfg.fingerprint_hex(), hex, "{cfg:?}");
    }
}
