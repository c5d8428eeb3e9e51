//! Table 1 and the 16-node protocol × directory bakeoff, pinned byte for
//! byte: what `table1_directory_cost` and `fig_bakeoff --smoke` print.
//! Every directory scheme's cost row and every (protocol, directory)
//! store/store/reread point is a line of these files. Re-bless only for
//! a deliberate change to the cost model, the simulated runs or the
//! printed form:
//!
//! CENJU4_BLESS_GOLDEN=1 cargo test -p cenju4-bench --test seam_goldens

mod common;

use common::check_golden;
use std::process::Command;

/// Runs `bin` with `args`, requires success and returns its stdout.
fn stdout_of(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn table1_prints_its_golden() {
    let got = stdout_of(env!("CARGO_BIN_EXE_table1_directory_cost"), &[]);
    check_golden("table1_directory_cost", &got);
}

#[test]
fn bakeoff_smoke_prints_its_golden() {
    let got = stdout_of(env!("CARGO_BIN_EXE_fig_bakeoff"), &["--smoke"]);
    check_golden("fig_bakeoff_smoke", &got);
}
