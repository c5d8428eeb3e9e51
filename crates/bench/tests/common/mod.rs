//! The golden-file check the bench binaries' output tests share.

/// Compares `got` against `tests/golden/<name>.txt`, or rewrites the file
/// when `CENJU4_BLESS_GOLDEN` is set.
pub fn check_golden(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("CENJU4_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; bless with CENJU4_BLESS_GOLDEN=1"));
    assert_eq!(got, want, "{name} drifted from its golden");
}
