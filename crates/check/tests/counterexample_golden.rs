//! Printed counterexamples, pinned byte for byte: what `cenju4-check`
//! prints for one `random` and one `reduced` counterexample, and what
//! running each printed replay command prints (the per-block protocol
//! trace included). The random one is a lossy walk of the nack protocol
//! under recovery that starves at its step cap; the reduced one is a
//! nack retry loop the exhaustive search (unreduced: nack is not
//! reduction-eligible) drives to its step cap, found in a parallel job
//! and shrunk. Re-bless only for a deliberate change to the schedules or
//! the printed form:
//!
//! CENJU4_BLESS_GOLDEN=1 cargo test -p cenju4-check --test counterexample_golden

use std::process::Command;

/// Runs `cenju4-check args`, asserting it exits 1 (falsified); returns
/// its stdout.
fn falsified(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cenju4-check"))
        .args(args)
        .output()
        .expect("spawn cenju4-check");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(
        out.status.code(),
        Some(1),
        "cenju4-check {args:?}: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The counterexample `args` prints, followed by what its printed replay
/// command prints.
fn counterexample_and_replay(args: &[&str]) -> String {
    let found = falsified(args);
    let replay = found
        .lines()
        .find_map(|l| l.strip_prefix("  replay: cenju4-check "))
        .unwrap_or_else(|| panic!("no replay command in:\n{found}"));
    let replayed = falsified(&replay.split(' ').collect::<Vec<_>>());
    format!("{found}{replayed}")
}

/// Compares `got` against `tests/golden/<name>.txt`, or rewrites the file
/// when `CENJU4_BLESS_GOLDEN` is set.
fn check_golden(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("CENJU4_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; bless with CENJU4_BLESS_GOLDEN=1"));
    assert_eq!(got, want, "{name} drifted from its golden");
}

#[test]
fn random_counterexample_prints_its_golden() {
    let got = counterexample_and_replay(&[
        "random",
        "--nodes",
        "3",
        "--blocks",
        "2",
        "--ops",
        "2",
        "--protocol",
        "nack",
        "--recovery",
        "on",
        "--drop-rate",
        "100",
        "--fault-seed",
        "1",
        "--max-steps",
        "80",
        "--seed",
        "1",
        "--walks",
        "200",
        "--threads",
        "2",
    ]);
    check_golden("random_counterexample", &got);
}

#[test]
fn reduced_counterexample_prints_its_golden() {
    let got = counterexample_and_replay(&[
        "reduced",
        "--nodes",
        "3",
        "--blocks",
        "1",
        "--ops",
        "2",
        "--protocol",
        "nack",
        "--max-steps",
        "60",
        "--threads",
        "2",
    ]);
    check_golden("reduced_counterexample", &got);
}
