//! High-level experiment execution: run a workload, compute speedups.

use crate::apps::{AppKind, Variant};
use crate::program::KernelProgram;
use cenju4_sim::{ConfigError, Driver, RunReport, SystemConfig};

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

/// CG speedup with the update-protocol extension enabled.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn cg_update_speedup(nodes: u16, scale: f64) -> Result<f64, ConfigError> {
    let t_seq = sequential_time(AppKind::Cg, scale)? as f64;
    let t_par = run_cg_with_update(nodes, scale)?.total_time().as_ns() as f64;
    Ok(t_seq / t_par)
}

/// The sequential execution time of `app` at `scale`, in simulated ns.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn sequential_time(app: AppKind, scale: f64) -> Result<u64, ConfigError> {
    // The machine needs ≥ 2 nodes; the seq program only uses node 0.
    let report = run_workload(app, Variant::Seq, true, 2, scale)?;
    Ok(report.total_time().as_ns())
}

/// Speedup of a parallel run relative to the sequential program:
/// `T_seq / T_par` (Figure 12's y-axis).
///
/// # Errors
///
/// Propagates configuration errors.
pub fn speedup(
    app: AppKind,
    variant: Variant,
    mapping: bool,
    nodes: u16,
    scale: f64,
) -> Result<f64, ConfigError> {
    let t_seq = sequential_time(app, scale)? as f64;
    let t_par = run_workload(app, variant, mapping, nodes, scale)?
        .total_time()
        .as_ns() as f64;
    Ok(t_seq / t_par)
}

/// Speedups at several machine sizes, computed in parallel: one
/// [`cenju4_sim::sweep`] point per node count, each running its own
/// engine. The sequential baseline is measured once, up front. Results
/// are in `nodes` order and identical to calling [`speedup`] per count.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn speedups(
    app: AppKind,
    variant: Variant,
    mapping: bool,
    nodes: &[u16],
    scale: f64,
) -> Result<Vec<f64>, ConfigError> {
    let t_seq = sequential_time(app, scale)? as f64;
    cenju4_sim::sweep(nodes, |&n| {
        let t_par = run_workload(app, variant, mapping, n, scale)?;
        Ok(t_seq / t_par.total_time().as_ns() as f64)
    })
    .into_iter()
    .collect()
}

/// Parallel efficiency: `speedup / nodes` (Figure 11(b)'s y-axis).
///
/// # Errors
///
/// Propagates configuration errors.
pub fn efficiency(
    app: AppKind,
    variant: Variant,
    mapping: bool,
    nodes: u16,
    scale: f64,
) -> Result<f64, ConfigError> {
    Ok(speedup(app, variant, mapping, nodes, scale)? / nodes as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenju4_sim::AccessClass;

    const SCALE: f64 = 0.5;

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
            let s2 = speedup(app, Variant::Dsm2, true, 2, SCALE).unwrap();
            let s8 = speedup(app, Variant::Dsm2, true, 8, SCALE).unwrap();
            assert!(s8 > s2, "{app}: {s2:.2} !< {s8:.2}");
            assert!(s2 > 0.8, "{app}: 2-node speedup {s2:.2} implausible");
        }
    }

    #[test]
    fn dsm2_beats_dsm1_on_grid_solvers() {
        for app in [AppKind::Bt, AppKind::Sp] {
            let e1 = efficiency(app, Variant::Dsm1, true, 8, SCALE).unwrap();
            let e2 = efficiency(app, Variant::Dsm2, true, 8, SCALE).unwrap();
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
        let e1 = efficiency(AppKind::Cg, Variant::Dsm1, true, 8, SCALE).unwrap();
        let e2 = efficiency(AppKind::Cg, Variant::Dsm2, true, 8, SCALE).unwrap();
        assert!(
            (e1 - e2).abs() < 0.10,
            "CG dsm1 {e1:.2} vs dsm2 {e2:.2} should be close"
        );
    }

    #[test]
    fn cg_saturates_bt_does_not() {
        // CG's efficiency collapses as nodes grow; BT's dsm2 holds up.
        let cg4 = efficiency(AppKind::Cg, Variant::Dsm2, true, 4, SCALE).unwrap();
        let cg32 = efficiency(AppKind::Cg, Variant::Dsm2, true, 32, SCALE).unwrap();
        let bt32 = efficiency(AppKind::Bt, Variant::Dsm2, true, 32, SCALE).unwrap();
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
        let e = efficiency(AppKind::Bt, Variant::Mpi, true, 8, SCALE).unwrap();
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
