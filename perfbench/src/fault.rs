//! `fault-campaign`: the explorer loop over consecutive seeds.
//!
//! Seed `k` runs on topology `k mod 3` (`diamond`, `line-stub`, `mesh`):
//! its random fault schedule (flaps, crashes, loss, channel impairments,
//! bandwidth caps, bursts) is run against PIM, DVMRP and CBT, each case
//! with the full telemetry fan-out and the oracle battery.
//!
//! The untraced run fans seeds out over `par::run_trials` at two
//! threads, as the `explore` binary does, and runs each seed exactly as
//! `scenario::explore_seed` does, one protocol at a time so each case is
//! timed; before the timed phase, the first seeds are checked once
//! against `explore_seed` itself. Two threads also average out the
//! host's per-CPU speed drift, which makes the run steadier than one
//! thread. The traced run goes one case at a time: it rebuilds each
//! case from public pieces (`build_net`, `FaultSchedule::install`, the
//! `check_*` oracles) with every telemetry sink wrapped, and must
//! reproduce the trace and telemetry fingerprints of every case.

use crate::calib::{Calibration, Kernel};
use crate::wrap::TimedSink;
use crate::{median, quantile, Args, Report};
use netsim::{host_addr, NodeIdx, SimTime};
use scenario::{
    build_net, check_congestion_recovery, check_delivery, check_no_orphans, check_structure,
    explore_seed, random_schedule, run_case, slice_lines, topologies, CaseOutcome, FaultSchedule,
    Protocol, ScenarioNet, Substrate, TopoSpec,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use telemetry::{
    CausalIndex, CoverageSink, Fanout, FlightRecorder, JsonlSink, MetricsAggregator,
    FLIGHT_RECORDER_CAP,
};
use wire::Group;

/// Seeds per timed batch (three cases each, split over the threads);
/// throughput is the median over batches.
const BATCH_SEEDS: u64 = 6;
/// Seed fan-out width, as the `explore` binary runs (the container's
/// `nproc`).
const THREADS: usize = 2;
/// Seeds whose worlds one set-up builds. The size of a seed's schedule
/// varies widely, so set-up spans many seeds to stay comparable across
/// benchmark seeds.
const SETUP_SEEDS: u64 = 300;
/// Seeds per traced pass (four per topology).
const TRACE_SEEDS: u64 = 12;

// The explorer's scenario timeline (`scenario::explore`), which the
// traced rebuild must repeat to reproduce each case.
const TRAIN: u64 = 20;
const PROBES: u64 = 8;
const PROBE_START: u64 = 4500;
const PROBE_GAP: u64 = 30;
const CHECK_AT: u64 = 6000;
const CAPTURE_LIMIT: usize = 300_000;

/// The first explored seed for a benchmark seed: runs on different
/// benchmark seeds explore disjoint seed ranges.
fn first_seed(seed: u64) -> u64 {
    seed.wrapping_mul(1_000_003) % (1 << 40)
}

fn schedule_for(topo: &TopoSpec, s: u64) -> FaultSchedule {
    // explore_seed's rule: teardown mode on every third seed.
    random_schedule(topo, s, s % 3 == 2)
}

/// A case passed: no oracle violation (panics are the `no-panic`
/// violation) and no lost telemetry lines.
fn passed(o: &CaseOutcome) -> bool {
    o.violations.is_empty() && o.sink_errors == 0
}

fn describe(topo: &TopoSpec, p: Protocol, s: u64, o: &CaseOutcome) -> String {
    format!(
        "case failed: topology {} protocol {} seed {s}: {} violation(s) {:?}, sink_errors {}",
        topo.name,
        p.name(),
        o.violations.len(),
        o.violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>(),
        o.sink_errors
    )
}

/// Untraced run: cases per second, per-case latency, oracle results,
/// with a compute-bound calibration kernel around every batch.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let base = first_seed(args.seed);

    // The first set-up warms up and gives the topologies; the timed
    // set-ups come one per batch.
    let (topos, _) = set_up(base);

    // The reference explore_seed pass over the first seed of each
    // topology, run once and untimed: the timed per-case loop must
    // reproduce it.
    let reference = (0..3)
        .map(|k| {
            let s = base + k;
            explore_seed(&topos[(s % 3) as usize], s)
                .into_iter()
                .map(|(_, o)| (o.fingerprint, o.telemetry_fingerprint))
                .collect::<Vec<_>>()
        })
        .collect::<Vec<_>>();

    // Host set-up seconds and batch rates, and (batch, host ms) per case.
    let mut cal = Calibration::new(Kernel::Compute, THREADS);
    let mut host_setup = Vec::new();
    let mut host_rates = Vec::new();
    let mut host_lat = Vec::new();
    let mut s = base;
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        cal.sample();
        let batch = host_rates.len();
        // One set-up sample per batch, outside the batch's clock, so the
        // set-up samples span the run as the throughput samples do.
        host_setup.push(set_up(base).1);
        let b = Instant::now();
        let first = s;
        let seeds = par::run_trials(THREADS, BATCH_SEEDS as usize, |k| {
            let seed = first + k as u64;
            let topo = &topos[(seed % 3) as usize];
            let schedule = schedule_for(topo, seed);
            Protocol::ALL.map(|p| {
                let t0 = Instant::now();
                let o = run_case(topo, p, &schedule, seed);
                (t0.elapsed().as_secs_f64() * 1e3, o)
            })
        });
        for cases in seeds {
            let topo = &topos[(s % 3) as usize];
            for (k, (p, (ms, o))) in Protocol::ALL.into_iter().zip(cases).enumerate() {
                host_lat.push((batch, ms));
                report.attempted += 1;
                let reproduces = reference
                    .get((s - base) as usize)
                    .is_none_or(|r| r[k] == (o.fingerprint, o.telemetry_fingerprint));
                if !passed(&o) || !reproduces {
                    report.failed += 1;
                    report.note(describe(topo, p, s, &o));
                }
            }
            s += 1;
        }
        host_rates.push(3.0 * BATCH_SEEDS as f64 / b.elapsed().as_secs_f64());
    }
    cal.sample();
    report.correct = report.failed == 0;
    let setup: Vec<f64> = host_setup
        .iter()
        .enumerate()
        .map(|(b, secs)| secs * cal.factor(b))
        .collect();
    let rates: Vec<f64> = host_rates
        .iter()
        .enumerate()
        .map(|(b, r)| r / cal.factor(b))
        .collect();
    let lat: Vec<f64> = host_lat.iter().map(|&(b, ms)| ms * cal.factor(b)).collect();
    let host: Vec<f64> = host_lat.iter().map(|l| l.1).collect();
    report.set("setup_s", median(&setup));
    report.set("trials_per_s", median(&rates));
    report.note(format!(
        "cases_per_s {} 1/s ({} cases over seeds {base}..{s}, calibrated)",
        median(&rates),
        lat.len()
    ));
    if !lat.is_empty() {
        report.set("trial_ms.p50", quantile(&lat, 0.5));
        report.set("trial_ms.p90", quantile(&lat, 0.9));
        report.note(format!(
            "case_ms.p50 {} ms case_ms.p90 {} ms ({} samples, calibrated)",
            quantile(&lat, 0.5),
            quantile(&lat, 0.9),
            lat.len()
        ));
        report.note(format!(
            "host (uncalibrated): setup_s {} s trials_per_s {} 1/s trial_ms.p50 {} ms \
             trial_ms.p90 {} ms",
            median(&host_setup),
            median(&host_rates),
            quantile(&host, 0.5),
            quantile(&host, 0.9)
        ));
    }
    report.note(cal.describe("compute kernel around each batch"));
    report
}

/// Set-up: the topologies, then the fault schedule and the world of
/// every case of the first `SETUP_SEEDS` seeds. Returns the topologies
/// and the host seconds it took.
fn set_up(base: u64) -> (Vec<TopoSpec>, f64) {
    let t0 = Instant::now();
    let topos = topologies();
    for s in base..base + SETUP_SEEDS {
        let topo = &topos[(s % 3) as usize];
        let schedule = schedule_for(topo, s);
        for p in Protocol::ALL {
            let mut net = build_case_net(topo, p, s);
            install(&mut net, &schedule);
            std::hint::black_box(&net);
        }
    }
    (topos, t0.elapsed().as_secs_f64())
}

/// `scenario::run_case`'s world for one case, before telemetry.
fn build_case_net(topo: &TopoSpec, protocol: Protocol, seed: u64) -> ScenarioNet {
    let mut net = build_net(
        &topo.graph,
        protocol,
        Substrate::Oracle,
        Group::test(1),
        topo.rendezvous,
        &topo.host_routers,
        seed,
    );
    net.world.enable_capture(CAPTURE_LIMIT);
    net
}

/// `scenario::run_case`'s schedule: the faults, the data train and the
/// probes.
fn install(net: &mut ScenarioNet, schedule: &FaultSchedule) {
    let host_nodes: Vec<NodeIdx> = net.hosts.iter().map(|&(n, _)| n).collect();
    schedule.install(&mut net.world, &host_nodes, Group::test(1));
    net.send_at(0, 100, TRAIN, 40);
    net.send_at(0, PROBE_START, PROBES, PROBE_GAP);
}

/// One sink of the fan-out, wrapped.
type Timed<S> = Arc<Mutex<TimedSink<S>>>;

fn timed<S>(inner: S) -> Timed<S> {
    Arc::new(Mutex::new(TimedSink::new(inner)))
}

/// Per-case host time of each phase of a traced case, in nanoseconds,
/// plus the netsim counts and each sink's totals.
#[derive(Default)]
struct CaseCost {
    build_net: u64,
    install: u64,
    run: u64,
    oracles: u64,
    artifact: u64,
    events: u64,
    queue_drops: u64,
    ecn_marks: u64,
    /// (events, links, ns) per sink: flight, jsonl, metrics, causal,
    /// coverage.
    sinks: [(u64, u64, u64); 5],
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn lines_hash(lines: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    for l in lines {
        l.hash(&mut h);
    }
    h.finish()
}

fn text_hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

fn sink_totals<S>(s: &Timed<S>) -> (u64, u64, u64) {
    let s = s.lock().expect("sink lock");
    (s.events, s.links, s.ns)
}

/// `scenario::run_case` rebuilt from public pieces with every sink
/// wrapped. Returns (trace fingerprint, telemetry fingerprint,
/// violations, sink errors) and the phase costs.
fn traced_case(
    topo: &TopoSpec,
    protocol: Protocol,
    schedule: &FaultSchedule,
    seed: u64,
) -> ((u64, u64, usize, u64), CaseCost) {
    let mut cost = CaseCost::default();
    let t = Instant::now();
    let mut net = build_case_net(topo, protocol, seed);
    let tag = Protocol::ALL
        .iter()
        .position(|p| *p == protocol)
        .expect("known protocol") as u64;
    let flight = timed(FlightRecorder::new(FLIGHT_RECORDER_CAP));
    let jsonl = timed(JsonlSink::new(Vec::new()));
    let metrics = timed(MetricsAggregator::new());
    let causal = timed(CausalIndex::new());
    let coverage = timed(CoverageSink::new(tag));
    let mut fan = Fanout::new();
    fan.push(flight.clone());
    fan.push(jsonl.clone());
    fan.push(metrics.clone());
    fan.push(causal.clone());
    fan.push(coverage.clone());
    net.attach_telemetry(Arc::new(Mutex::new(fan)));
    cost.build_net = ns(t);

    let t = Instant::now();
    install(&mut net, schedule);
    net.world.parallelize(1);
    cost.install = ns(t);

    let t = Instant::now();
    net.world.run_until(SimTime(CHECK_AT));
    cost.run = ns(t);

    let t = Instant::now();
    let members = schedule.final_members(topo.host_routers.len());
    let source = host_addr(topo.host_routers[0], 0);
    let expected: Vec<u64> = (TRAIN..TRAIN + PROBES).collect();
    let mut violations = check_structure(&net);
    let c = net.world.counters();
    if members.is_empty() {
        violations.extend(check_no_orphans(&net));
    } else if c.queue_drops_data() > 0 || c.queue_drops_ctrl() > 0 || c.peak_queue_bytes() > 0 {
        violations.extend(check_congestion_recovery(&net, &members, source, &expected));
    } else {
        violations.extend(check_delivery(&net, &members, source, &expected));
    }
    cost.oracles = ns(t);
    cost.events = c.events_dispatched();
    cost.queue_drops = c.queue_drops_data() + c.queue_drops_ctrl();
    cost.ecn_marks = c.ecn_marks();

    // The artifact phase: post-mortem dumps of implicated routers,
    // rendered metrics, the telemetry stream and the trace fingerprint.
    let t = Instant::now();
    let causal_index = causal.lock().expect("sink lock").inner.clone();
    let mut implicated: Vec<usize> = violations
        .iter()
        .map(|v| v.node)
        .filter(|&n| n < net.router_count)
        .collect();
    implicated.sort_unstable();
    implicated.dedup();
    for n in implicated {
        std::hint::black_box(flight.lock().expect("sink lock").inner.dump(n as u32));
        std::hint::black_box(net.state_dump(n, SimTime(CHECK_AT)));
        if let Some(id) = causal_index
            .last_flag_transition(Some(n as u32))
            .or_else(|| causal_index.last_event_on(n as u32))
        {
            std::hint::black_box(slice_lines(&causal_index, id));
        }
    }
    {
        let mut m = metrics.lock().expect("sink lock");
        m.inner.finish();
        std::hint::black_box(m.inner.render());
    }
    let (telemetry, sink_errors) = {
        let j = jsonl.lock().expect("sink lock");
        (
            String::from_utf8(j.inner.get_ref().clone()).expect("JSONL telemetry is UTF-8"),
            j.inner.errors,
        )
    };
    let trace: Vec<String> = net
        .world
        .captured()
        .iter()
        .map(|r| {
            format!(
                "{} link{} r{} {}",
                r.at.ticks(),
                r.link.0,
                r.from.0,
                r.summary
            )
        })
        .collect();
    let fingerprint = lines_hash(&trace);
    let telemetry_fingerprint = text_hash(&telemetry);
    cost.artifact = ns(t);

    cost.sinks = [
        sink_totals(&flight),
        sink_totals(&jsonl),
        sink_totals(&metrics),
        sink_totals(&causal),
        sink_totals(&coverage),
    ];
    (
        (
            fingerprint,
            telemetry_fingerprint,
            violations.len(),
            sink_errors,
        ),
        cost,
    )
}

/// Traced run: a fixed set of seeds untraced then traced per pass,
/// every case's fingerprints compared, per-phase and per-sink costs.
pub fn trace(args: &Args) -> Report {
    let mut report = Report::default();
    let topos = topologies();
    let base = first_seed(args.seed);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut totals = CaseCost::default();
    let mut proto_ns = [0u64; 3];
    let mut traced_cases = 0u64;
    let mut pass_counts = None;
    let mut passes = 0u64;
    let start = Instant::now();
    // Whole passes until the time is up, at least one, whether or not
    // any case succeeds.
    while passes == 0 || start.elapsed() < args.seconds {
        let mut counts = (0u64, 0u64, 0u64, [(0u64, 0u64); 5]);
        for s in base..base + TRACE_SEEDS {
            let topo = &topos[(s % 3) as usize];
            let schedule = schedule_for(topo, s);
            for (k, p) in Protocol::ALL.into_iter().enumerate() {
                report.attempted += 1;
                let t0 = Instant::now();
                let plain = run_case(topo, p, &schedule, s);
                untraced_s += t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let traced =
                    catch_unwind(AssertUnwindSafe(|| traced_case(topo, p, &schedule, s))).ok();
                let case_ns = ns(t1);
                traced_s += case_ns as f64 / 1e9;
                let Some((key, cost)) = traced else {
                    report.failed += 1;
                    continue;
                };
                let plain_key = (
                    plain.fingerprint,
                    plain.telemetry_fingerprint,
                    plain.violations.len(),
                    plain.sink_errors,
                );
                if !passed(&plain) || key != plain_key {
                    report.failed += 1;
                    report.note(describe(topo, p, s, &plain));
                    continue;
                }
                traced_cases += 1;
                proto_ns[k] += case_ns;
                totals.build_net += cost.build_net;
                totals.install += cost.install;
                totals.run += cost.run;
                totals.oracles += cost.oracles;
                totals.artifact += cost.artifact;
                counts.0 += cost.events;
                counts.1 += cost.queue_drops;
                counts.2 += cost.ecn_marks;
                for (i, &(e, l, n)) in cost.sinks.iter().enumerate() {
                    counts.3[i].0 += e;
                    counts.3[i].1 += l;
                    totals.sinks[i].0 += e;
                    totals.sinks[i].2 += n;
                }
            }
        }
        // Counts are per pass and repeat exactly; keep the first.
        pass_counts.get_or_insert(counts);
        passes += 1;
    }
    report.correct = report.failed == 0;
    let (events, drops, marks, sinks) = pass_counts.expect("one pass ran");
    let per_case_ms = |ns: u64| ns as f64 / 1e6 / traced_cases.max(1) as f64;
    let per_proto_ms = |ns: u64| ns as f64 / 1e6 / (traced_cases / 3).max(1) as f64;
    report.set("scenario.build_net_ms", per_case_ms(totals.build_net));
    report.set("scenario.install_ms", per_case_ms(totals.install));
    report.set("netsim.run_ms", per_case_ms(totals.run));
    report.set("scenario.oracles_ms", per_case_ms(totals.oracles));
    report.set("scenario.artifact_ms", per_case_ms(totals.artifact));
    report.set("scenario.case_ms.pim", per_proto_ms(proto_ns[0]));
    report.set("scenario.case_ms.dvmrp", per_proto_ms(proto_ns[1]));
    report.set("scenario.case_ms.cbt", per_proto_ms(proto_ns[2]));
    report.set("netsim.events", events as f64);
    report.set("netsim.queue_drops", drops as f64);
    report.set("netsim.ecn_marks", marks as f64);
    report.set(
        "netsim.ns_per_event",
        totals.run as f64 / (events * passes).max(1) as f64,
    );
    let names: [[&'static str; 3]; 5] = [
        [
            "telemetry.flight.events",
            "telemetry.flight.links",
            "telemetry.flight.ns_per_event",
        ],
        [
            "telemetry.jsonl.events",
            "telemetry.jsonl.links",
            "telemetry.jsonl.ns_per_event",
        ],
        [
            "telemetry.metrics.events",
            "telemetry.metrics.links",
            "telemetry.metrics.ns_per_event",
        ],
        [
            "telemetry.causal.events",
            "telemetry.causal.links",
            "telemetry.causal.ns_per_event",
        ],
        [
            "telemetry.coverage.events",
            "telemetry.coverage.links",
            "telemetry.coverage.ns_per_event",
        ],
    ];
    for (i, [e, l, n]) in names.into_iter().enumerate() {
        report.set(e, sinks[i].0 as f64);
        report.set(l, sinks[i].1 as f64);
        report.set(
            n,
            totals.sinks[i].2 as f64 / totals.sinks[i].0.max(1) as f64,
        );
    }
    report.set("trace.overhead_ratio", traced_s / untraced_s);
    report.note(format!(
        "traced {traced_cases} cases in passes of {} (seeds {base}..{}); \
         trace and telemetry fingerprints compared per case",
        3 * TRACE_SEEDS,
        base + TRACE_SEEDS
    ));
    report
}
