//! Synthetic NAS-Parallel-Benchmark-style workloads for the Cenju-4
//! reproduction.
//!
//! The paper evaluates its DSM with four NPB 2.3 Class A kernels — BT, CG,
//! FT and SP — each in four program variants: `seq` (sequential), `mpi`
//! (message passing), `dsm(1)` (naive outer-loop parallelization of the
//! sequential program) and `dsm(2)` (memory-access-optimized), the DSM
//! variants with and without *data mappings* (placing each shared page on
//! the node that uses it most).
//!
//! We do not have the Fortran sources, an R10000, or weeks of simulated
//! instructions — what the evaluation actually depends on is each kernel's
//! **memory access pattern**, so this crate generates those patterns
//! synthetically (see DESIGN.md for the substitution argument):
//!
//! * **BT / SP** — structured-grid sweeps. `dsm(1)` re-partitions the grid
//!   differently per sweep (the consequence of parallelizing each loop
//!   nest's outermost loop), so blocks migrate between nodes every sweep;
//!   `dsm(2)` keeps a fixed partition, computes in private memory, and
//!   exchanges boundary planes through locally-homed receive buffers.
//! * **CG** — sparse mat-vec: every node reads the *entire* shared vector
//!   each iteration with per-block reuse that shrinks as nodes are added —
//!   the access pattern the paper blames for CG's speedup saturation.
//!   Optimization and mapping do not help it, as in the paper.
//! * **FT** — local FFT passes in private memory plus an all-to-all
//!   transpose through shared tiles.
//! * **mpi** — the same computation with exchanges costed by the paper's
//!   measured MPI figures (9.1 µs latency, 169 MB/s).
//!
//! [`runner`] executes any (app, variant, mapping, nodes) combination and
//! returns the Table-3/4-shaped [`cenju4_sim::RunReport`]; [`rewrite`]
//! carries the Figure 11(a) programming-effort data.
//!
//! # Examples
//!
//! ```
//! use cenju4_workloads::{runner, AppKind, Variant};
//!
//! // A small CG run on 4 nodes, optimized variant with data mapping.
//! let report = runner::run_workload(AppKind::Cg, Variant::Dsm2, true, 4, 0.25)?;
//! assert!(report.total_time().as_ns() > 0);
//! # Ok::<(), cenju4_sim::ConfigError>(())
//! ```

pub mod apps;
pub mod array;
pub mod program;
pub mod rewrite;
pub mod runner;

pub use apps::{AppKind, AppParams, Variant};
pub use program::KernelProgram;
