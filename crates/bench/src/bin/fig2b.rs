//! **Figure 2(b)** — traffic concentration: maximum number of traffic
//! flows on any link, shortest-path trees vs center-based trees.
//!
//! Paper setup (§1.3): "In each network, there were 300 active groups all
//! having 40 members, of which 32 members were also senders. We measured
//! the number of traffic flows on each link of the network, then recorded
//! the maximum number within the network. For each node degree between
//! three and eight, 500 random networks were generated, and the measured
//! maximum number of traffic flows were averaged. ... It is clear from
//! this experiment that CBT exhibits greater traffic concentrations."
//!
//! Run: `cargo run -p bench --release --bin fig2b [--trials N] [--seed N]
//! [--threads N] [--groups N] [--smoke] [--json PATH]`
//! (The full 500×6 sweep takes a while; `--quick` runs 50×6 and `--smoke`
//! runs 3×6 with 60 groups.)
//!
//! Trials fan out over a deterministic scoped-thread pool: trial `t` of
//! degree `d` draws from `StdRng::seed_from_u64(par::mix(seed, d, t))`,
//! so stdout is bit-identical for every `--threads` value.

use bench::{cli, perf, stats};
use graph::algo::AllPairs;
use graph::gen::{random_connected, RandomGraphParams};
use mctree::flows::{max_flows, one_center};
use mctree::{cbt_link_flows, spt_link_flows, GroupSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 50;
const MEMBERS: usize = 40;
const SENDERS: usize = 32;

/// One Monte-Carlo network: (max SPT flows, max CBT flows).
fn trial(seed: u64, degree: u32, trial_idx: usize, groups: usize) -> (f64, f64) {
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
    let specs: Vec<GroupSpec> = (0..groups)
        .map(|_| GroupSpec::random(NODES, MEMBERS, SENDERS, &mut rng))
        .collect();
    let spt = spt_link_flows(&g, &ap, &specs);
    let cbt = cbt_link_flows(&g, &ap, &specs, |spec| one_center(&g, &ap, &spec.members));
    (max_flows(&spt) as f64, max_flows(&cbt) as f64)
}

/// The full degree sweep; returns the printable rows.
fn sweep(args: &cli::Args, threads: usize, groups: usize) -> Vec<String> {
    (3..=8u32)
        .map(|degree| {
            let pairs = par::run_trials(threads, args.trials, |t| {
                trial(args.seed, degree, t, groups)
            });
            let spt_max: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let cbt_max: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let s = stats(&spt_max);
            let c = stats(&cbt_max);
            format!(
                "{:<8} {:>8} {:>12.1} {:>10.1} {:>12.1} {:>10.1} {:>8.3}",
                degree,
                args.trials,
                s.mean,
                s.sd,
                c.mean,
                c.sd,
                c.mean / s.mean
            )
        })
        .collect()
}

/// The flags this binary accepts.
const USAGE: &str =
    "usage: fig2b [--seed N] [--trials N] [--quick] [--smoke] [--threads N] [--groups N] [--json PATH]";

fn main() {
    let args = cli::parse_smoke(USAGE, 500, 3);
    let groups = args.groups.unwrap_or(if args.smoke { 60 } else { 300 });
    println!("# Figure 2(b): max traffic flows on any link, SPT vs center-based tree");
    println!(
        "# {NODES}-node networks, {groups} groups x {MEMBERS} members ({SENDERS} senders), {} networks per degree, seed {}",
        args.trials, args.seed
    );
    println!(
        "{:<8} {:>8} {:>12} {:>10} {:>12} {:>10} {:>8}",
        "degree", "trials", "spt_mean", "spt_sd", "cbt_mean", "cbt_sd", "cbt/spt"
    );
    let (rows, wall_ms) = perf::time(|| sweep(&args, args.threads, groups));
    for row in &rows {
        println!("{row}");
    }
    println!("# Paper's shape: center-based trees concentrate noticeably more flows on the");
    println!("# hottest link at every degree, with both curves falling as degree rises.");

    if let Some(path) = &args.json {
        let (rows_1t, wall_ms_1t) = if args.threads == 1 {
            (rows.clone(), wall_ms)
        } else {
            perf::time(|| sweep(&args, 1, groups))
        };
        assert_eq!(rows, rows_1t, "thread fan-out changed the results");
        let json = format!(
            "{{\n  \"bench\": \"fig2b\", \"seed\": {}, \"groups\": {groups}, {}\n}}\n",
            args.seed,
            perf::timing_fields(args.threads, args.trials * 6, wall_ms, wall_ms_1t),
        );
        perf::write_json(path, &json);
    }
}
