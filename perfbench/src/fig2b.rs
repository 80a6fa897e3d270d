//! `fig2b-montecarlo`: Figure 2(b) at the paper's parameters.
//!
//! One trial is one 50-node random graph (average degree 3..=8, round
//! robin over the trial index) carrying 300 groups of 40 members, 32 of
//! them senders. It counts per-link flows for shortest-path trees and
//! for center-based trees, exactly as the `fig2b` binary does, and trials
//! fan out over `par::run_trials` at two threads. Only `graph`, `mctree`
//! and `par` run; the simulator is never touched.

use crate::calib::{Calibration, Kernel};
use crate::{median, quantile, Args, Report};
use graph::algo::AllPairs;
use graph::gen::{random_connected, RandomGraphParams};
use graph::Graph;
use mctree::flows::{max_flows, one_center};
use mctree::{cbt_link_flows, center_tree, spt_link_flows, spt_tree_edges, GroupSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const NODES: usize = 50;
const MEMBERS: usize = 40;
const SENDERS: usize = 32;
const GROUPS: usize = 300;
/// Trial fan-out width (the container's `nproc`).
const THREADS: usize = 2;
/// Trials per timed batch; throughput is the median over batches.
const BATCH: usize = 8;
/// Trials whose inputs set-up generates: one per degree.
const SETUP_TRIALS: usize = 6;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Set-up trials also recomputed through the reference path, once and
/// untimed; the timed trials with the same index must match them.
const CALIBRATION: usize = 2;
/// Trials per traced pass (four per degree).
const TRACE_TRIALS: usize = 24;

struct Inputs {
    g: Graph,
    ap: AllPairs,
    specs: Vec<GroupSpec>,
}

fn trial_rng(seed: u64, t: usize) -> (StdRng, f64) {
    let degree = 3 + (t % 6) as u64;
    let rng = StdRng::seed_from_u64(par::mix(seed, degree, t as u64));
    (rng, degree as f64)
}

fn gen_graph(seed: u64, t: usize) -> (Graph, StdRng) {
    let (mut rng, degree) = trial_rng(seed, t);
    let g = random_connected(
        &RandomGraphParams {
            nodes: NODES,
            avg_degree: degree,
            delay_range: (1, 10),
        },
        &mut rng,
    );
    (g, rng)
}

fn gen_specs(rng: &mut StdRng) -> Vec<GroupSpec> {
    (0..GROUPS)
        .map(|_| GroupSpec::random(NODES, MEMBERS, SENDERS, rng))
        .collect()
}

fn inputs(seed: u64, t: usize) -> Inputs {
    let (g, mut rng) = gen_graph(seed, t);
    let ap = AllPairs::new(&g);
    let specs = gen_specs(&mut rng);
    Inputs { g, ap, specs }
}

/// FNV-1a over both flow vectors: the trial's output digest.
fn digest(spt: &[u32], cbt: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in spt.iter().chain([u32::MAX].iter()).chain(cbt) {
        h ^= u64::from(v);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

struct Trial {
    digest: u64,
    max_spt: u32,
    max_cbt: u32,
    ms: f64,
}

fn flows(i: &Inputs) -> (Vec<u32>, Vec<u32>) {
    let spt = spt_link_flows(&i.g, &i.ap, &i.specs);
    let cbt = cbt_link_flows(&i.g, &i.ap, &i.specs, |spec| {
        one_center(&i.g, &i.ap, &spec.members)
    });
    (spt, cbt)
}

/// One trial exactly as the figure runs it; `None` if it panicked.
fn trial(seed: u64, t: usize) -> Option<Trial> {
    catch_unwind(|| {
        let start = Instant::now();
        let i = inputs(seed, t);
        let (spt, cbt) = flows(&i);
        let (max_spt, max_cbt) = (max_flows(&spt), max_flows(&cbt));
        Trial {
            digest: digest(&spt, &cbt),
            max_spt,
            max_cbt,
            ms: start.elapsed().as_secs_f64() * 1e3,
        }
    })
    .ok()
}

/// A trial's digest computed through the per-sender `spt_tree_edges`
/// and per-group `center_tree` calls instead of the flow counters: the
/// reference the timed trials are checked against.
fn reference(i: &Inputs) -> u64 {
    let mut spt = vec![0u32; i.g.edge_count()];
    let mut cbt = vec![0u32; i.g.edge_count()];
    for spec in &i.specs {
        for &s in &spec.senders {
            for e in spt_tree_edges(&i.g, &i.ap, s, &spec.members) {
                spt[e.index()] += 1;
            }
        }
        let core = one_center(&i.g, &i.ap, &spec.members);
        for e in &center_tree(&i.g, &i.ap, core, &spec.members).edges {
            cbt[e.index()] += spec.senders.len() as u32;
        }
    }
    digest(&spt, &cbt)
}

/// A trial's output is plausible: every group's shared tree carries all
/// of its senders' flows on at least one link, and some link carries an
/// SPT flow.
fn plausible(t: &Trial) -> bool {
    t.max_cbt >= SENDERS as u32 && t.max_spt >= 1
}

/// Untraced run: throughput, per-trial latency, and output checks.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    // Set-up: topology, group and all-pairs generation for the first
    // trials of the seed.
    let mut setup_cal = Calibration::new(Kernel::Compute, THREADS);
    let mut host_setup = Vec::new();
    let mut trial_inputs = Vec::new();
    setup_cal.sample();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        trial_inputs = (0..SETUP_TRIALS).map(|t| inputs(args.seed, t)).collect();
        host_setup.push(t0.elapsed().as_secs_f64());
        setup_cal.sample();
    }
    let setup: Vec<f64> = host_setup
        .iter()
        .enumerate()
        .map(|(k, s)| s * setup_cal.factor(k))
        .collect();
    // A reference that panics matches no trial, so its trial fails.
    let refs: Vec<Option<u64>> = trial_inputs[..CALIBRATION]
        .iter()
        .map(|i| catch_unwind(AssertUnwindSafe(|| reference(i))).ok())
        .collect();

    // Host batch rates, and (batch, host ms) per trial that finished.
    let mut cal = Calibration::new(Kernel::Compute, THREADS);
    let mut host_rates = Vec::new();
    let mut host_lat = Vec::new();
    let (mut spt_sum, mut cbt_sum) = (0.0, 0.0);
    let mut next = 0;
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        cal.sample();
        let batch = host_rates.len();
        let b = Instant::now();
        let out = par::run_trials(THREADS, BATCH, |k| trial(args.seed, next + k));
        host_rates.push(BATCH as f64 / b.elapsed().as_secs_f64());
        for (k, tr) in out.into_iter().enumerate() {
            let t = next + k;
            report.attempted += 1;
            let ok = tr.as_ref().is_some_and(|tr| {
                host_lat.push((batch, tr.ms));
                spt_sum += f64::from(tr.max_spt);
                cbt_sum += f64::from(tr.max_cbt);
                plausible(tr) && refs.get(t).is_none_or(|&r| r == Some(tr.digest))
            });
            if !ok {
                report.failed += 1;
            }
        }
        next += BATCH;
    }
    cal.sample();
    report.correct = report.failed == 0;
    let rates: Vec<f64> = host_rates
        .iter()
        .enumerate()
        .map(|(b, r)| r / cal.factor(b))
        .collect();
    let lat: Vec<f64> = host_lat.iter().map(|&(b, ms)| ms * cal.factor(b)).collect();
    let n = lat.len().max(1) as f64;
    report.set("setup_s", median(&setup));
    report.set("trials_per_s", median(&rates));
    if !lat.is_empty() {
        let host: Vec<f64> = host_lat.iter().map(|l| l.1).collect();
        report.set("trial_ms.p50", quantile(&lat, 0.5));
        report.set("trial_ms.p90", quantile(&lat, 0.9));
        report.note(format!(
            "host (uncalibrated): setup_s {} s trials_per_s {} 1/s trial_ms.p50 {} ms \
             trial_ms.p90 {} ms",
            median(&host_setup),
            median(&host_rates),
            quantile(&host, 0.5),
            quantile(&host, 0.9)
        ));
    }
    report.note(setup_cal.describe("compute kernel around each set-up"));
    report.note(cal.describe("compute kernel around each batch"));
    report.note(format!(
        "trial_ms samples {} (p90 has {} beyond it)",
        lat.len(),
        lat.len() / 10
    ));
    report.note(format!(
        "fig2b mean_max_flows spt {} cbt {} cbt/spt {} ratio",
        spt_sum / n,
        cbt_sum / n,
        cbt_sum / spt_sum
    ));
    report
}

/// Per-phase host time of one traced trial.
struct TracedTrial {
    digest: u64,
    gen_ns: u64,
    all_pairs_ns: u64,
    spt_ns: u64,
    cbt_ns: u64,
    busy_ns: u64,
    sender_trees: u64,
}

fn traced_trial(seed: u64, t: usize) -> Option<TracedTrial> {
    catch_unwind(AssertUnwindSafe(|| {
        let start = Instant::now();
        let (g, mut rng) = gen_graph(seed, t);
        let specs = gen_specs(&mut rng);
        let gen_ns = start.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let ap = AllPairs::new(&g);
        let all_pairs_ns = t1.elapsed().as_nanos() as u64;
        let t2 = Instant::now();
        let spt = spt_link_flows(&g, &ap, &specs);
        let spt_ns = t2.elapsed().as_nanos() as u64;
        let t3 = Instant::now();
        let cbt = cbt_link_flows(&g, &ap, &specs, |spec| one_center(&g, &ap, &spec.members));
        let cbt_ns = t3.elapsed().as_nanos() as u64;
        std::hint::black_box((max_flows(&spt), max_flows(&cbt)));
        TracedTrial {
            digest: digest(&spt, &cbt),
            gen_ns,
            all_pairs_ns,
            spt_ns,
            cbt_ns,
            busy_ns: start.elapsed().as_nanos() as u64,
            sender_trees: specs.iter().map(|s| s.senders.len() as u64).sum(),
        }
    }))
    .ok()
}

/// Traced run: the same trials untraced then traced, per-phase times,
/// and a digest comparison of every trial.
pub fn trace(args: &Args) -> Report {
    let mut report = Report::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut phases = [0u64; 5];
    let mut traced_trials = 0u64;
    let mut sender_trees = 0;
    let start = Instant::now();
    // Whole passes until the time is up, at least one, whether or not
    // any trial succeeds.
    while report.attempted == 0 || start.elapsed() < args.seconds {
        let t0 = Instant::now();
        let plain = par::run_trials(THREADS, TRACE_TRIALS, |t| trial(args.seed, t));
        untraced_s += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let traced = par::run_trials(THREADS, TRACE_TRIALS, |t| traced_trial(args.seed, t));
        traced_s += t1.elapsed().as_secs_f64();
        sender_trees = 0;
        for (p, tr) in plain.iter().zip(&traced) {
            report.attempted += 1;
            match (p, tr) {
                (Some(p), Some(tr)) if p.digest == tr.digest => {
                    traced_trials += 1;
                    sender_trees += tr.sender_trees;
                    for (acc, v) in phases.iter_mut().zip([
                        tr.gen_ns,
                        tr.all_pairs_ns,
                        tr.spt_ns,
                        tr.cbt_ns,
                        tr.busy_ns,
                    ]) {
                        *acc += v;
                    }
                }
                _ => report.failed += 1,
            }
        }
    }
    report.correct = report.failed == 0;
    let per_trial_ms = |ns: u64| ns as f64 / 1e6 / traced_trials.max(1) as f64;
    report.set("graph.gen_ms", per_trial_ms(phases[0]));
    report.set("graph.all_pairs_ms", per_trial_ms(phases[1]));
    report.set("mctree.spt_flows_ms", per_trial_ms(phases[2]));
    report.set("mctree.cbt_flows_ms", per_trial_ms(phases[3]));
    report.set("mctree.sender_trees", sender_trees as f64);
    report.set(
        "par.busy_frac",
        phases[4] as f64 / 1e9 / (THREADS as f64 * traced_s),
    );
    report.set("trace.overhead_ratio", traced_s / untraced_s);
    report.note(format!(
        "traced {traced_trials} trials in passes of {TRACE_TRIALS}; digests compared per trial"
    ));
    report
}
