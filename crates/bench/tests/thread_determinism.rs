//! The fan-out contract, end to end: the figure binaries must print
//! bit-identical stdout for every `--threads` value. Trial `t` of stream
//! `s` always seeds its RNG with `par::mix(seed, s, t)` regardless of
//! which worker runs it, and results are reassembled in trial order — so
//! parallelism is purely a wall-clock lever, never a results variable.

use std::process::Command;

/// Run a bench binary and return its stdout, asserting success.
fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout must be UTF-8")
}

/// stdout must be byte-identical across thread counts (and non-trivial).
fn assert_thread_invariant(bin: &str, base_args: &[&str]) {
    let mut outputs = Vec::new();
    for threads in ["1", "2", "4", "8"] {
        let mut args = base_args.to_vec();
        args.extend(["--threads", threads]);
        outputs.push(run(bin, &args));
    }
    assert!(
        outputs[0].lines().count() > 5,
        "suspiciously short output:\n{}",
        outputs[0]
    );
    for (i, threads) in ["2", "4", "8"].iter().enumerate() {
        assert_eq!(
            outputs[0],
            outputs[i + 1],
            "{bin}: 1 vs {threads} threads diverged"
        );
    }
}

#[test]
fn fig2a_output_is_thread_count_invariant() {
    assert_thread_invariant(env!("CARGO_BIN_EXE_fig2a"), &["--trials", "4"]);
}

#[test]
fn fig2b_output_is_thread_count_invariant() {
    assert_thread_invariant(
        env!("CARGO_BIN_EXE_fig2b"),
        &["--trials", "1", "--groups", "20"],
    );
}

#[test]
fn ablation_output_is_thread_count_invariant() {
    assert_thread_invariant(env!("CARGO_BIN_EXE_ablation"), &["--trials", "2"]);
}

/// simbench prints wall-clock timings, which legitimately vary run to
/// run. Strip them — plus the profile blocks, whose nanosecond columns
/// are wall-clock — leaving the deterministic content: fingerprints and
/// delivery/event counts.
fn simbench_deterministic_view(out: &str) -> String {
    out.lines()
        .filter_map(|l| {
            // "...: N deliveries in X ms (Y/ms)" → cut at the timing.
            if let Some(i) = l.find(" in ") {
                return Some(l[..i].to_string());
            }
            if l.starts_with("node_profile") || l.starts_with("hier_profile") || l.starts_with("  ")
            {
                return None;
            }
            let toks: Vec<&str> = l.split_whitespace().collect();
            let numeric = toks.iter().all(|t| t.parse::<f64>().is_ok());
            // Sweep rows "nodes deliveries events wall_ms run_ms us/ev"
            // → keep only the simulation results.
            if toks.len() == 6 && numeric {
                return Some(toks[..3].join(" "));
            }
            // Hierarchical sweep rows "routers domains members deliveries
            // del% events state/rtr ctrl/rtr wall_ms run_ms us/ev" → drop
            // the wall-clock tail.
            if toks.len() == 11 && numeric {
                return Some(toks[..8].join(" "));
            }
            Some(l.to_string())
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The simulator microbench — LAN fan-out fingerprint, protocol-run
/// deliveries, and the sweeps' deliveries and events — must repeat
/// exactly from run to run.
#[test]
fn simbench_results_are_thread_count_invariant() {
    let bin = env!("CARGO_BIN_EXE_simbench");
    let views: Vec<String> = (0..2)
        .map(|_| simbench_deterministic_view(&run(bin, &["--smoke"])))
        .collect();
    assert!(
        views[0].contains("fingerprint"),
        "missing fingerprint line:\n{}",
        views[0]
    );
    assert_eq!(views[0], views[1], "simbench: two runs diverged");
}

/// `--seed` still changes the numbers (the invariance above isn't a
/// constant-output bug).
#[test]
fn fig2a_seed_actually_steers_results() {
    let bin = env!("CARGO_BIN_EXE_fig2a");
    let a = run(bin, &["--trials", "3", "--seed", "1"]);
    let b = run(bin, &["--trials", "3", "--seed", "2"]);
    assert_ne!(a, b, "different seeds must change the sweep");
}
