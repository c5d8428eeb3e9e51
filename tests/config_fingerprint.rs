//! Canonical configuration fingerprints: the dedup key the service
//! builds on. Two guarantees matter — *stability* (the same semantic
//! configuration hashes identically no matter how the builder was
//! driven) and *sensitivity* (changing any knob moves the hash).

use cenju4::prelude::*;

/// Builder call order must not matter: the fingerprint hashes the
/// resolved configuration, not the construction path. (The knobs here
/// are independent setters; `protocol` carries its full spec so the
/// coherence/kind pair is one knob, not two order-sensitive calls.)
#[test]
fn builder_order_permutations_hash_identically() {
    let a = SystemConfig::builder(16)
        .protocol((ProtocolId::Mesi, ProtocolKind::Nack))
        .directory(DirectoryId::FullMap)
        .without_multicast()
        .mpi_latency(Duration::from_ns(5000))
        .build()
        .unwrap();
    let b = SystemConfig::builder(16)
        .mpi_latency(Duration::from_ns(5000))
        .without_multicast()
        .directory(DirectoryId::FullMap)
        .protocol((ProtocolId::Mesi, ProtocolKind::Nack))
        .build()
        .unwrap();
    let c = SystemConfig::builder(16)
        .directory(DirectoryId::FullMap)
        .mpi_latency(Duration::from_ns(5000))
        .protocol((ProtocolId::Mesi, ProtocolKind::Nack))
        .without_multicast()
        .build()
        .unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(b.fingerprint(), c.fingerprint());
    assert_eq!(a.fingerprint_hex(), c.fingerprint_hex());
}

/// Spelling out a default explicitly is the same configuration.
#[test]
fn explicit_defaults_hash_like_omitted_defaults() {
    let implicit = SystemConfig::new(16).unwrap();
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
        ("baseline", SystemConfig::new(16).unwrap()),
        ("nodes", SystemConfig::new(64).unwrap()),
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
            SystemConfig::builder(16).nack_protocol().build().unwrap(),
        ),
        (
            "no multicast",
            SystemConfig::builder(16)
                .without_multicast()
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
        let hex = SystemConfig::new(nodes).unwrap().fingerprint_hex();
        assert_eq!(hex.len(), 16);
        assert!(hex
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        assert_eq!(
            u64::from_str_radix(&hex, 16).unwrap(),
            SystemConfig::new(nodes).unwrap().fingerprint()
        );
    }
}
