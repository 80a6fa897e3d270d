//! **Figure 2(a)** — ratio of maximum group delay: optimal center-based
//! tree vs shortest-path trees.
//!
//! Paper setup (§1.3): "For each node degree, we tried 500 different
//! 50-node graphs with 10-member groups chosen randomly. ... the maximum
//! delays of core-based trees with optimal core placement are up to 1.4
//! times of the shortest-path trees."
//!
//! Run: `cargo run -p bench --release --bin fig2a [--trials N] [--seed N]
//! [--threads N] [--smoke] [--json PATH]`
//!
//! Trials fan out over a deterministic scoped-thread pool: trial `t` of
//! degree `d` always draws from `StdRng::seed_from_u64(par::mix(seed, d,
//! t))`, so stdout is bit-identical for every `--threads` value.
//!
//! Output: one row per node degree with the mean ratio and its standard
//! deviation (the paper's error bars). Footnote 2 of the paper applies
//! here too: no individual ratio is ever below 1 (see the `min` column);
//! error bars dipping below 1 are symmetric-bar artifacts.

use bench::{cli, perf, stats};
use graph::algo::AllPairs;
use graph::gen::{random_connected, RandomGraphParams};
use mctree::{optimal_center_delay, optimal_center_tree_exhaustive, spt_max_delay, GroupSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 50;
const MEMBERS: usize = 10;

/// One Monte-Carlo trial: the center/SPT max-delay ratio for a fresh
/// random graph and group. All randomness comes from the per-trial seed.
fn trial(seed: u64, degree: u32, trial_idx: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(par::mix(seed, degree as u64, trial_idx as u64));
    let g = random_connected(
        &RandomGraphParams {
            nodes: NODES,
            avg_degree: degree as f64,
            delay_range: (1, 10),
        },
        &mut rng,
    );
    let ap = AllPairs::new(&g);
    let spec = GroupSpec::random(NODES, MEMBERS, MEMBERS, &mut rng);
    let spt = spt_max_delay(&ap, &spec.members) as f64;
    let (_, center) = optimal_center_delay(&g, &ap, &spec.members);
    center as f64 / spt
}

/// The full degree sweep; returns the printable rows.
fn sweep(args: &cli::Args, threads: usize) -> Vec<String> {
    (3..=8u32)
        .map(|degree| {
            let ratios = par::run_trials(threads, args.trials, |t| trial(args.seed, degree, t));
            let s = stats(&ratios);
            let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = ratios.iter().cloned().fold(0.0f64, f64::max);
            format!(
                "{:<8} {:>8} {:>12.4} {:>10.4} {:>8.3} {:>8.3}",
                degree, args.trials, s.mean, s.sd, min, max
            )
        })
        .collect()
}

/// Time the pruned core search against the retained exhaustive reference
/// on a few representative trials — the single-thread algorithmic win the
/// JSON record tracks alongside the fan-out speedup.
fn core_search_comparison(seed: u64) -> (f64, f64) {
    let probes = 8usize;
    let setups: Vec<_> = (0..probes)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(par::mix(seed, 6, t as u64));
            let g = random_connected(
                &RandomGraphParams {
                    nodes: NODES,
                    avg_degree: 6.0,
                    delay_range: (1, 10),
                },
                &mut rng,
            );
            let ap = AllPairs::new(&g);
            let spec = GroupSpec::random(NODES, MEMBERS, MEMBERS, &mut rng);
            (g, ap, spec)
        })
        .collect();
    let (_, exhaustive_ms) = perf::time(|| {
        for (g, ap, spec) in &setups {
            std::hint::black_box(optimal_center_tree_exhaustive(g, ap, &spec.members));
        }
    });
    let (_, pruned_ms) = perf::time(|| {
        for (g, ap, spec) in &setups {
            std::hint::black_box(optimal_center_delay(g, ap, &spec.members));
        }
    });
    (exhaustive_ms / probes as f64, pruned_ms / probes as f64)
}

/// The flags this binary accepts.
const USAGE: &str =
    "usage: fig2a [--seed N] [--trials N] [--quick] [--smoke] [--threads N] [--json PATH]";

fn main() {
    let args = cli::parse_smoke(USAGE, 500, 24);
    println!("# Figure 2(a): max-delay ratio, optimal center-based tree / shortest-path trees");
    println!(
        "# {NODES}-node random graphs, {MEMBERS}-member groups, {} graphs per degree, seed {}",
        args.trials, args.seed
    );
    println!(
        "{:<8} {:>8} {:>12} {:>10} {:>8} {:>8}",
        "degree", "trials", "mean_ratio", "sd", "min", "max"
    );
    let (rows, wall_ms) = perf::time(|| sweep(&args, args.threads));
    for row in &rows {
        println!("{row}");
    }
    println!("# Paper's shape: ratio > 1 everywhere, rising toward ~1.2-1.4 at higher degrees;");
    println!("# no real data point below 1 (footnote 2).");

    if let Some(path) = &args.json {
        // Re-run single-threaded for the speedup denominator; the rows
        // must match bit-for-bit (the determinism contract).
        let (rows_1t, wall_ms_1t) = if args.threads == 1 {
            (rows.clone(), wall_ms)
        } else {
            perf::time(|| sweep(&args, 1))
        };
        assert_eq!(rows, rows_1t, "thread fan-out changed the results");
        let (exhaustive_ms, pruned_ms) = core_search_comparison(args.seed);
        let json = format!(
            "{{\n  \"bench\": \"fig2a\", \"seed\": {}, {},\n  \
             \"core_search_ms_per_trial\": {{\"exhaustive\": {exhaustive_ms:.3}, \
             \"pruned\": {pruned_ms:.3}, \"speedup\": {:.2}}}\n}}\n",
            args.seed,
            perf::timing_fields(args.threads, args.trials * 6, wall_ms, wall_ms_1t),
            exhaustive_ms / pruned_ms
        );
        perf::write_json(path, &json);
    }
}
