//! The `cenju4-check` binary's output plumbing.

use std::io::Read;
use std::process::{Command, Stdio};

/// A reader that closes the pipe early (`cenju4-check … | head -1`)
/// stops the checker quietly, with the status of a `SIGPIPE` death:
/// no panic exit (101) and no "failed printing" message.
#[test]
fn closed_stdout_is_a_quiet_stop() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cenju4-check"))
        .args(["reduced", "--nodes", "3", "--blocks", "1", "--ops", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cenju4-check");
    // The read end closes long before the exploration prints its summary.
    drop(child.stdout.take());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for cenju4-check");
    assert!(!stderr.contains("failed printing"), "{stderr}");
    assert_eq!(status.code(), Some(141), "{status}: {stderr}");
}
