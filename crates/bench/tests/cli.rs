//! The experiment binaries' command lines fail cleanly: `--help` prints
//! the usage and exits 0, and a bad flag or value prints the error and
//! the usage to stderr and exits 2 — never a panic with a backtrace.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = run(env!("CARGO_BIN_EXE_fig2b"), &["--help"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: fig2b"));
}

#[test]
fn bad_flags_and_values_exit_two_without_panicking() {
    let cases: [(&str, &[&str]); 4] = [
        (env!("CARGO_BIN_EXE_fig2b"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_fig2b"), &["--trials", "many"]),
        (env!("CARGO_BIN_EXE_fig2a"), &["--threads", "0"]),
        // simbench runs one world on one thread: it takes no --threads.
        (env!("CARGO_BIN_EXE_simbench"), &["--threads", "2"]),
    ];
    for (bin, args) in cases {
        let out = run(bin, args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
        assert!(!err.contains("panicked"), "{bin} {args:?}: {err}");
        assert!(err.contains("usage:"), "{bin} {args:?}: {err}");
    }
}
