//! The application results — Figure 11, Table 3, Figure 12 and Table 4 —
//! pinned byte for byte at scale 0.1: what `workload_figures 0.1` prints.
//! The golden was blessed from the four binaries these tables had before
//! they shared one point set (their stdout, concatenated in that order).
//! Re-bless only for a deliberate change to the simulated runs or the
//! printed form:
//!
//! CENJU4_BLESS_GOLDEN=1 cargo test -p cenju4-bench --test workload_figures_golden

mod common;

use common::check_golden;
use std::process::{Command, Output};

fn workload_figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_workload_figures"))
        .args(args)
        .output()
        .expect("spawn workload_figures")
}

#[test]
fn workload_figures_print_their_golden() {
    let out = workload_figures(&["0.1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    check_golden(
        "workload_figures_0.1",
        &String::from_utf8(out.stdout).expect("utf-8 stdout"),
    );
}

/// A scale whose shared arrays exceed the simulator's limit is the typed
/// `ArrayTooLarge` error before any point runs: no table is printed and
/// nothing panics.
#[test]
fn oversized_scale_is_a_typed_error_before_any_run() {
    let out = workload_figures(&["5"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("ArrayTooLarge"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "printed before failing");
}

#[test]
fn unknown_flags_are_usage_errors() {
    let out = workload_figures(&["--bogus", "0.05"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --bogus"), "{stderr}");
    assert!(stderr.contains("usage: workload_figures"), "{stderr}");
    assert!(out.stdout.is_empty());
}
