//! Command-line behaviour shared by the bench binaries: an unknown
//! argument is a usage error before any work, and a reader that closes
//! stdout early stops a binary quietly.

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn unknown_arguments_are_usage_errors() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_chaos"), &["--bogus"][..]),
        (env!("CARGO_BIN_EXE_fault_overhead"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_fig_bakeoff"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_fig_bakeoff"), &["--smoke", "--bogus"]),
        (env!("CARGO_BIN_EXE_fig_bakeoff"), &["--smoke", "--smoke"]),
    ] {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran");
    }
}

/// `workload_figures` prints nothing until its runs are done, so the read
/// end is closed long before its first write.
#[test]
fn closed_stdout_is_a_quiet_stop() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_workload_figures"))
        .arg("0.1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn workload_figures");
    drop(child.stdout.take());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for workload_figures");
    assert!(!stderr.contains("failed printing"), "{stderr}");
    assert_eq!(status.code(), Some(141), "{status}: {stderr}");
}
