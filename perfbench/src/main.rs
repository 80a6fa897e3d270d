//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig2b-montecarlo|pim-hier-groups|fault-campaign> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! instrumentation. With `--trace 1` it runs a fixed amount of work
//! twice, untraced and then traced, checks that the traced run
//! reproduces the untraced one exactly, and reports the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `perfbench/README.md` for the workloads and metrics.

mod calib;
mod fault;
mod fig2b;
mod pim_hier;
mod span;
mod wrap;

use std::collections::BTreeMap;
use std::panic::catch_unwind;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("trial_ms.p50", "ms"),
    ("trial_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// workload that never calls into a layer reports its metrics as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_ms", "ms"),
    ("graph.all_pairs_ms", "ms"),
    ("mctree.spt_flows_ms", "ms"),
    ("mctree.cbt_flows_ms", "ms"),
    ("mctree.sender_trees", "count"),
    ("par.busy_frac", "ratio"),
    ("netsim.world_build_ms", "ms"),
    ("netsim.run_ms", "ms"),
    ("netsim.self_ms", "ms"),
    ("netsim.events", "count"),
    ("netsim.deliver_events", "count"),
    ("netsim.timer_events", "count"),
    ("netsim.stale_timers", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.queue_drops", "count"),
    ("netsim.ecn_marks", "count"),
    ("node.on_packet_calls", "count"),
    ("node.on_packet_self_ms", "ms"),
    ("node.on_timer_calls", "count"),
    ("node.on_timer_self_ms", "ms"),
    ("node.other_self_ms", "ms"),
    ("wire.decode_frames", "count"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_msgs", "count"),
    ("wire.encode_ns", "ns"),
    ("pim.on_control_calls", "count"),
    ("pim.on_control_ms", "ms"),
    ("pim.on_data_calls", "count"),
    ("pim.on_data_ms", "ms"),
    ("pim.tick_calls", "count"),
    ("pim.tick_ms", "ms"),
    ("pim.next_deadline_calls", "count"),
    ("pim.next_deadline_ms", "ms"),
    ("pim.other_ms", "ms"),
    ("pim.tick_useful_ratio", "ratio"),
    ("unicast.oracle_build_ms", "ms"),
    ("unicast.route_calls", "count"),
    ("unicast.route_ns", "ns"),
    ("unicast.other_ms", "ms"),
    ("igmp.host_calls", "count"),
    ("igmp.host_ms", "ms"),
    ("sim.delivery_ratio", "ratio"),
    ("sim.state_per_router", "count"),
    ("sim.ctrl_pkts_per_router", "count"),
    ("reconcile.layers_ms", "ms"),
    ("reconcile.span_cost_ms", "ms"),
    ("reconcile.remainder_ms", "ms"),
    ("reconcile.remainder_frac", "ratio"),
    ("telemetry.flight.events", "count"),
    ("telemetry.flight.links", "count"),
    ("telemetry.flight.ns_per_event", "ns"),
    ("telemetry.jsonl.events", "count"),
    ("telemetry.jsonl.links", "count"),
    ("telemetry.jsonl.ns_per_event", "ns"),
    ("telemetry.metrics.events", "count"),
    ("telemetry.metrics.links", "count"),
    ("telemetry.metrics.ns_per_event", "ns"),
    ("telemetry.causal.events", "count"),
    ("telemetry.causal.links", "count"),
    ("telemetry.causal.ns_per_event", "ns"),
    ("telemetry.coverage.events", "count"),
    ("telemetry.coverage.links", "count"),
    ("telemetry.coverage.ns_per_event", "ns"),
    ("scenario.build_net_ms", "ms"),
    ("scenario.install_ms", "ms"),
    ("scenario.oracles_ms", "ms"),
    ("scenario.artifact_ms", "ms"),
    ("scenario.case_ms.pim", "ms"),
    ("scenario.case_ms.dvmrp", "ms"),
    ("scenario.case_ms.cbt", "ms"),
    ("trace.span_ns", "ns"),
    ("trace.wire_shadow_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Allowed gap on `pim-hier-groups` between the untraced
/// `netsim.run_ms` and the traced layer self times, less the trace's own
/// shadow wire work and span cost, as a share of `netsim.run_ms`.
pub const RECONCILE_TOLERANCE: f64 = 0.25;

/// Parsed command line.
pub struct Args {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
}

/// What a workload run hands back for printing.
pub struct Report {
    /// Every checked output was right.
    pub correct: bool,
    /// Operations attempted (trials, simulation runs, cases).
    pub attempted: u64,
    /// Operations that failed (see README.md, "Failure accounting").
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra `name value unit` lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Default for Report {
    /// An empty report.
    fn default() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }
}

impl Report {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a printed-only line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident memory of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// The checked-out git revision, read from `.git` in the working
/// directory only; an exported tree has none.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <fig2b-montecarlo|pim-hier-groups|fault-campaign> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Args, bool) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s >= 1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed must be a whole number"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds must be a whole number >= 1"));
    let trace = trace.unwrap_or_else(|| usage("--trace must be 0 or 1"));
    (
        workload,
        Args {
            seed,
            seconds: Duration::from_secs(seconds),
        },
        trace,
    )
}

fn main() {
    let (workload, args, trace) = parse_args();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={workload} seed={} seconds={} trace={} nproc={threads} rev={}",
        args.seed,
        args.seconds.as_secs(),
        u8::from(trace),
        git_revision()
    );
    let run: fn(&Args) -> Report = match (workload.as_str(), trace) {
        ("fig2b-montecarlo", false) => fig2b::run,
        ("fig2b-montecarlo", true) => fig2b::trace,
        ("pim-hier-groups", false) => pim_hier::run,
        ("pim-hier-groups", true) => pim_hier::trace,
        ("fault-campaign", false) => fault::run,
        ("fault-campaign", true) => fault::trace,
        _ => usage(&format!("unknown workload {workload}")),
    };
    // A panic that escapes the workload's own accounting is one failed
    // operation: the result line is still printed.
    let mut report = catch_unwind(|| run(&args)).unwrap_or_else(|_| Report {
        correct: false,
        attempted: 1,
        failed: 1,
        ..Report::default()
    });
    if report.attempted == 0 {
        // Nothing ran at all: count the run itself as one failed operation.
        report.correct = false;
        report.attempted = 1;
        report.failed = 1;
    }
    let names = if trace { PER_LAYER } else { END_TO_END };
    if !trace {
        report.set("peak_rss_mb", peak_rss_mb());
        report.set(
            "ok_ratio",
            (report.attempted - report.failed) as f64 / report.attempted as f64,
        );
    }
    for note in &report.notes {
        println!("{note}");
    }
    let fail_ratio = report.failed as f64 / report.attempted as f64;
    println!(
        "attempted {} failed {} fail_ratio {fail_ratio} ratio",
        report.attempted, report.failed
    );
    let mut fields = Vec::new();
    for &(name, unit) in names {
        // A bypassed layer reads 0 in the traced run. An end-to-end metric
        // is missing only when no operation produced a sample, and a
        // metric that is not finite is a broken measurement: either makes
        // the run incorrect, and the metric reads 0.
        let value = match report.metrics.get(name) {
            Some(&v) if v.is_finite() => v,
            None if trace => 0.0,
            v => {
                println!("metric {name} has no valid sample: {v:?}");
                report.correct = false;
                0.0
            }
        };
        println!("{name} {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        fields.join(", ")
    );
}
