//! **TEL** — telemetry sink overhead on the simulator event loop.
//!
//! The telemetry layer's contract is *zero overhead when disabled*: a
//! disabled [`telemetry::Telem`] handle reduces every emission site to
//! one `None` branch and never constructs an event. This harness
//! measures that claim end-to-end: the full scenario stack (all three
//! protocols × the explorer's topology zoo, with fault schedules and
//! data trains) runs under four sink configurations —
//!
//! * `disabled` — no sink attached (the production default);
//! * `flight`   — bounded per-node ring buffer of rendered events;
//! * `jsonl`    — JSON-lines stream into an in-memory buffer;
//! * `coverage` — the coverage-map fold driving `scenario::search`;
//! * `trace`    — the causal-index fold behind `trace why` (provenance
//!   DAG over every dispatch, silent ones included);
//! * `full`     — flight + jsonl + metrics + coverage + trace fanned
//!   out (what `scenario::run_case` attaches).
//!
//! Reported metric: simulator events dispatched per wall-clock second,
//! mean ± sd over trials, plus each mode's relative slowdown vs
//! `disabled`. Results land in `BENCH_telemetry.json` — the perf
//! trajectory baseline later PRs must not regress. Wall-clock time is
//! used *only* here, in the measurement harness; nothing inside the
//! simulation ever reads it.
//!
//! Run: `cargo run -p bench --release --bin telemetry [--trials N] [--seed N]`

use bench::{cli, stats};
use netsim::{NodeIdx, SimTime};
use scenario::{build_net, random_schedule, topologies, Protocol, Substrate};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use telemetry::{
    CausalIndex, CoverageSink, Fanout, FlightRecorder, JsonlSink, MetricsAggregator, SharedSink,
    FLIGHT_RECORDER_CAP,
};
use wire::Group;

/// When the measured run stops (the explorer's quiescence checkpoint).
const RUN_UNTIL: u64 = 6000;
/// Pre-fault data-train length — heavier than the explorer's so the
/// event loop, not setup, dominates the measurement.
const TRAIN: u64 = 100;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Disabled,
    Flight,
    Jsonl,
    Coverage,
    Trace,
    Full,
}

impl Mode {
    const ALL: [Mode; 6] = [
        Mode::Disabled,
        Mode::Flight,
        Mode::Jsonl,
        Mode::Coverage,
        Mode::Trace,
        Mode::Full,
    ];

    fn name(self) -> &'static str {
        match self {
            Mode::Disabled => "disabled",
            Mode::Flight => "flight",
            Mode::Jsonl => "jsonl",
            Mode::Coverage => "coverage",
            Mode::Trace => "trace",
            Mode::Full => "full",
        }
    }

    fn sink(self) -> Option<SharedSink> {
        match self {
            Mode::Disabled => None,
            Mode::Flight => Some(Arc::new(Mutex::new(FlightRecorder::new(
                FLIGHT_RECORDER_CAP,
            )))),
            Mode::Jsonl => Some(Arc::new(Mutex::new(JsonlSink::new(Vec::<u8>::new())))),
            Mode::Coverage => Some(Arc::new(Mutex::new(CoverageSink::new(0)))),
            Mode::Trace => Some(Arc::new(Mutex::new(CausalIndex::new()))),
            Mode::Full => {
                let mut fan = Fanout::new();
                fan.push(Arc::new(Mutex::new(FlightRecorder::new(
                    FLIGHT_RECORDER_CAP,
                ))));
                fan.push(Arc::new(Mutex::new(JsonlSink::new(Vec::<u8>::new()))));
                fan.push(Arc::new(Mutex::new(MetricsAggregator::new())));
                fan.push(Arc::new(Mutex::new(CoverageSink::new(0))));
                fan.push(Arc::new(Mutex::new(CausalIndex::new())));
                Some(Arc::new(Mutex::new(fan)))
            }
        }
    }
}

/// Run the whole suite (every topology × every protocol) once under
/// `mode`, returning (events dispatched, wall seconds). The seeds are
/// identical across modes, so every mode executes the same simulation
/// work — only the sink differs.
fn run_suite(mode: Mode, seed: u64) -> (u64, f64) {
    let group = Group::test(1);
    let mut events = 0u64;
    let mut secs = 0.0f64;
    for topo in &topologies() {
        let schedule = random_schedule(topo, seed, false);
        for protocol in Protocol::ALL {
            let mut net = build_net(
                &topo.graph,
                protocol,
                Substrate::Oracle,
                group,
                topo.rendezvous,
                &topo.host_routers,
                seed,
            );
            if let Some(sink) = mode.sink() {
                net.attach_telemetry(sink);
            }
            let host_nodes: Vec<NodeIdx> = net.hosts.iter().map(|&(n, _)| n).collect();
            schedule.install(&mut net.world, &host_nodes, group);
            net.send_at(0, 100, TRAIN, 10);

            let t0 = Instant::now();
            net.world.run_until(SimTime(RUN_UNTIL));
            secs += t0.elapsed().as_secs_f64();
            events += net.world.counters().events_dispatched();
        }
    }
    (events, secs)
}

/// The flags this binary accepts.
const USAGE: &str = "usage: telemetry [--seed N] [--trials N] [--quick]";

fn main() {
    let args = cli::parse(USAGE, 20);
    println!(
        "# Telemetry sink overhead: {} trials x (3 topologies x 3 protocols), seed {}.",
        args.trials, args.seed
    );
    println!(
        "{:<10} {:>14} {:>12} {:>12} {:>10}",
        "sink", "events/s", "sd", "wall ms", "vs off"
    );

    let mut rates: Vec<(Mode, Vec<f64>, Vec<f64>)> = Vec::new();
    for mode in Mode::ALL {
        let mut eps = Vec::new();
        let mut wall_ms = Vec::new();
        for trial in 0..args.trials {
            let (events, secs) = run_suite(mode, args.seed + trial as u64);
            eps.push(events as f64 / secs);
            wall_ms.push(secs * 1e3);
        }
        rates.push((mode, eps, wall_ms));
    }

    let base = stats(&rates[0].1).mean;
    let mut json = String::from("{\n  \"bench\": \"telemetry-sink-overhead\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"trials\": {}, \"seed\": {}, \"run_until\": {RUN_UNTIL}, \
         \"train\": {TRAIN}, \"suites\": \"3 topologies x 3 protocols per trial\"}},\n",
        args.trials, args.seed
    ));
    json.push_str("  \"results\": [\n");
    for (i, (mode, eps, wall_ms)) in rates.iter().enumerate() {
        let s = stats(eps);
        let w = stats(wall_ms);
        let rel = s.mean / base - 1.0;
        println!(
            "{:<10} {:>14.0} {:>12.0} {:>12.2} {:>+9.1}%",
            mode.name(),
            s.mean,
            s.sd,
            w.mean,
            rel * 100.0
        );
        json.push_str(&format!(
            "    {{\"sink\": \"{}\", \"events_per_sec_mean\": {:.0}, \
             \"events_per_sec_sd\": {:.0}, \"wall_ms_mean\": {:.3}, \
             \"slowdown_vs_disabled\": {:.4}}}{}\n",
            mode.name(),
            s.mean,
            s.sd,
            w.mean,
            rel,
            if i + 1 == rates.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    // "No measurable regression" gate: with no sink attached, every
    // emission site is one `None` branch, so the disabled mode must be
    // the fastest up to sampling noise (two standard deviations).
    let off = stats(&rates[0].1);
    let best = rates
        .iter()
        .map(|(_, eps, _)| stats(eps).mean)
        .fold(0.0f64, f64::max);
    json.push_str(&format!(
        "  \"disabled_within_noise\": {}\n}}\n",
        off.mean >= best - 2.0 * off.sd
    ));

    std::fs::write("BENCH_telemetry.json", &json).expect("write BENCH_telemetry.json");
    println!("# wrote BENCH_telemetry.json");
}
