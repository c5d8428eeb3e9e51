//! High-level experiment execution: run a workload, or its sequential
//! baseline. A speedup is [`RunReport::speedup`] of a parallel run over
//! [`sequential_time`].

use crate::apps::{AppKind, Variant};
use crate::program::KernelProgram;
use cenju4_des::Duration;
use cenju4_directory::NodeId;
use cenju4_sim::{ConfigError, Driver, NodeReport, Program, RunReport, SystemConfig};

/// Runs `(app, variant, mapping)` on `nodes` nodes at problem-size
/// multiplier `scale` and returns the run report.
///
/// # Errors
///
/// Returns [`ConfigError`] for invalid node counts, and
/// [`ConfigError::ArrayTooLarge`] for a `scale` whose shared arrays
/// exceed [`MAX_BLOCKS`](crate::array::MAX_BLOCKS).
pub fn run_workload(
    app: AppKind,
    variant: Variant,
    mapping: bool,
    nodes: u16,
    scale: f64,
) -> Result<RunReport, ConfigError> {
    let cfg = SystemConfig::builder(nodes).build()?;
    run_workload_on(&cfg, app, variant, mapping, scale)
}

/// Like [`run_workload`] but against a caller-supplied machine
/// configuration (for ablations: no multicast, nack protocol, …).
///
/// # Errors
///
/// Returns [`ConfigError::ArrayTooLarge`] for an oversized `scale`.
pub fn run_workload_on(
    cfg: &SystemConfig,
    app: AppKind,
    variant: Variant,
    mapping: bool,
    scale: f64,
) -> Result<RunReport, ConfigError> {
    let prog = KernelProgram::try_build(app, variant, mapping, cfg, scale)?;
    Ok(Driver::new(cfg, prog).run())
}

/// Runs CG with its shared vectors switched to the **update protocol**
/// with main-memory third-level caching — the fix Section 4.2.3 of the
/// paper proposes for CG's saturation. Stores to the vector push fresh
/// data to every subscriber; the per-iteration re-reads then hit each
/// node's local memory instead of missing remotely.
///
/// # Errors
///
/// Returns [`ConfigError`] for invalid node counts, and
/// [`ConfigError::ArrayTooLarge`] for an oversized `scale`.
pub fn run_cg_with_update(nodes: u16, scale: f64) -> Result<RunReport, ConfigError> {
    use crate::array::{Mapping, SharedArray};
    let cfg = SystemConfig::builder(nodes).build()?;
    let prog = KernelProgram::try_build(AppKind::Cg, Variant::Dsm2, true, &cfg, scale)?;
    let mut driver = Driver::new(&cfg, prog);
    let p = crate::apps::AppParams::for_app(AppKind::Cg, scale);
    for array_id in [0u32, 1] {
        let arr = SharedArray::new(array_id, p.blocks, nodes, Mapping::Partitioned);
        for b in 0..p.blocks {
            driver.engine_mut().mark_update_block(arr.addr(b));
        }
    }
    Ok(driver.run())
}

/// The sequential execution time of `app` at `scale`, in simulated ns:
/// the [`Variant::Seq`] program, the whole problem on node 0's private
/// memory, exactly as a [`Driver`] would time it on a 2-node machine.
///
/// A sequential program has only think and private steps, which involve
/// no other node, so it needs no engine: the time is the sum of its
/// steps' costs, each accounted by [`NodeReport::record_local`] as the
/// driver accounts it.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn sequential_time(app: AppKind, scale: f64) -> Result<u64, ConfigError> {
    // The machine needs ≥ 2 nodes; the seq program only uses node 0.
    let cfg = SystemConfig::builder(2).build()?;
    let mut prog = KernelProgram::try_build(app, Variant::Seq, true, &cfg, scale)?;
    let node = NodeId::new(0);
    let mut report = NodeReport::default();
    let mut t = Duration::ZERO;
    while let Some(step) = prog.next_step(node) {
        t += report
            .record_local(step, &cfg.proto)
            .unwrap_or_else(|| unreachable!("a sequential program ran {step:?}"));
    }
    Ok(t.as_ns())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenju4_sim::AccessClass;

    const SCALE: f64 = 0.5;

    /// Parallel efficiency over a sequential run of `seq_ns`: speedup per
    /// node (Figure 11(b)'s y-axis).
    fn efficiency(seq_ns: u64, app: AppKind, variant: Variant, nodes: u16) -> f64 {
        let r = run_workload(app, variant, true, nodes, SCALE).unwrap();
        r.speedup(seq_ns) / nodes as f64
    }

    #[test]
    fn seq_time_positive_and_deterministic() {
        let a = sequential_time(AppKind::Sp, SCALE).unwrap();
        let b = sequential_time(AppKind::Sp, SCALE).unwrap();
        assert!(a > 0);
        assert_eq!(a, b);
    }

    #[test]
    fn dsm_programs_speed_up_with_nodes() {
        for app in [AppKind::Bt, AppKind::Ft] {
            let seq = sequential_time(app, SCALE).unwrap();
            let speedup = |n| {
                run_workload(app, Variant::Dsm2, true, n, SCALE)
                    .unwrap()
                    .speedup(seq)
            };
            let (s2, s8) = (speedup(2), speedup(8));
            assert!(s8 > s2, "{app}: {s2:.2} !< {s8:.2}");
            assert!(s2 > 0.8, "{app}: 2-node speedup {s2:.2} implausible");
        }
    }

    #[test]
    fn dsm2_beats_dsm1_on_grid_solvers() {
        for app in [AppKind::Bt, AppKind::Sp] {
            let seq = sequential_time(app, SCALE).unwrap();
            let e1 = efficiency(seq, app, Variant::Dsm1, 8);
            let e2 = efficiency(seq, app, Variant::Dsm2, 8);
            assert!(e2 > e1, "{app}: dsm2 ({e2:.2}) must beat dsm1 ({e1:.2})");
        }
    }

    #[test]
    fn mapping_reduces_remote_misses_for_dsm1_grid() {
        let unmapped = run_workload(AppKind::Bt, Variant::Dsm1, false, 8, SCALE).unwrap();
        let mapped = run_workload(AppKind::Bt, Variant::Dsm1, true, 8, SCALE).unwrap();
        let rf_un = unmapped.miss_fraction(AccessClass::SharedRemote);
        let rf_map = mapped.miss_fraction(AccessClass::SharedRemote);
        assert!(
            rf_map < rf_un,
            "mapping must localize misses: {rf_map:.2} !< {rf_un:.2}"
        );
        assert!(rf_un > 0.6, "unmapped dsm1 should be remote-dominated");
    }

    #[test]
    fn cg_is_insensitive_to_optimization() {
        let seq = sequential_time(AppKind::Cg, SCALE).unwrap();
        let e1 = efficiency(seq, AppKind::Cg, Variant::Dsm1, 8);
        let e2 = efficiency(seq, AppKind::Cg, Variant::Dsm2, 8);
        assert!(
            (e1 - e2).abs() < 0.10,
            "CG dsm1 {e1:.2} vs dsm2 {e2:.2} should be close"
        );
    }

    #[test]
    fn cg_saturates_bt_does_not() {
        // CG's efficiency collapses as nodes grow; BT's dsm2 holds up.
        let cg = sequential_time(AppKind::Cg, SCALE).unwrap();
        let bt = sequential_time(AppKind::Bt, SCALE).unwrap();
        let cg4 = efficiency(cg, AppKind::Cg, Variant::Dsm2, 4);
        let cg32 = efficiency(cg, AppKind::Cg, Variant::Dsm2, 32);
        let bt32 = efficiency(bt, AppKind::Bt, Variant::Dsm2, 32);
        assert!(cg32 < cg4 * 0.7, "CG must degrade: {cg4:.2} -> {cg32:.2}");
        assert!(
            bt32 > cg32,
            "BT ({bt32:.2}) must scale better than CG ({cg32:.2})"
        );
    }

    #[test]
    fn dsm2_has_higher_private_fraction() {
        let d1 = run_workload(AppKind::Bt, Variant::Dsm1, true, 8, SCALE).unwrap();
        let d2 = run_workload(AppKind::Bt, Variant::Dsm2, true, 8, SCALE).unwrap();
        assert!(
            d2.access_fraction(AccessClass::Private) > d1.access_fraction(AccessClass::Private)
        );
        assert!(d2.miss_ratio() < d1.miss_ratio());
    }

    #[test]
    fn mpi_scales_well() {
        let seq = sequential_time(AppKind::Bt, SCALE).unwrap();
        let e = efficiency(seq, AppKind::Bt, Variant::Mpi, 8);
        assert!(e > 0.5, "mpi efficiency {e:.2} too low");
    }

    /// A scale whose shared arrays exceed `MAX_BLOCKS` is a typed error,
    /// not a panic inside `SharedArray::new`; the largest scale that fits
    /// still builds.
    #[test]
    fn oversized_arrays_are_a_config_error() {
        use crate::array::MAX_BLOCKS;
        let err = run_workload(AppKind::Bt, Variant::Dsm1, true, 4, 4.5).unwrap_err();
        assert!(
            matches!(err, ConfigError::ArrayTooLarge { blocks, max: MAX_BLOCKS } if blocks > MAX_BLOCKS),
            "{err:?}"
        );
        assert!(matches!(
            run_cg_with_update(4, 8.5),
            Err(ConfigError::ArrayTooLarge { .. })
        ));
        let cfg = SystemConfig::builder(4).build().unwrap();
        assert!(KernelProgram::try_build(AppKind::Bt, Variant::Dsm1, true, &cfg, 4.0).is_ok());
        // The sequential and MPI programs lay out no shared array.
        assert!(KernelProgram::try_build(AppKind::Bt, Variant::Seq, true, &cfg, 4.5).is_ok());
    }

    #[test]
    fn sync_fraction_grows_with_nodes() {
        let r4 = run_workload(AppKind::Sp, Variant::Dsm2, true, 4, SCALE).unwrap();
        let r16 = run_workload(AppKind::Sp, Variant::Dsm2, true, 16, SCALE).unwrap();
        assert!(
            r16.sync_fraction() > r4.sync_fraction(),
            "{:.3} !> {:.3}",
            r16.sync_fraction(),
            r4.sync_fraction()
        );
    }
}
