//! `trace` fails cleanly: an unreadable artifact or a bad argument
//! prints the error and the usage to stderr and exits 2 — never a panic
//! with a backtrace — and `--help` exits 0.

use std::process::Command;

#[test]
fn trace_why_on_a_missing_artifact_exits_two_without_panicking() {
    let bin = env!("CARGO_BIN_EXE_trace");
    for args in [
        &["why", "/nonexistent"][..],
        &["why"],
        &["diamond", "pim", "x"],
    ] {
        let out = Command::new(bin).args(args).output().expect("spawn trace");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
    let out = Command::new(bin)
        .arg("--help")
        .output()
        .expect("spawn trace");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("trace why ARTIFACT"));
}
