//! `pim-hier-groups`: PIM-SM (SPT policy) over a 1000-router hierarchy
//! with 30 overlapping groups of aggregate member sites.
//!
//! The untraced run calls `bench::run_protocol_sim_hier`, two
//! simulations at a time over `par::run_trials`. The traced run goes one
//! simulation at a time: it builds the same world from public pieces
//! (`Topology::build_world`, `OracleRib::for_all`, the host nodes) with
//! every router, engine, RIB and host wrapped, schedules the same joins
//! and sends, and must reproduce the untraced run's reception
//! fingerprint, event count, state count and control-packet count
//! exactly.

use crate::calib::{Calibration, Kernel};
use crate::span::{self, Count, Layer};
use crate::wrap::{TracedEngine, TracedNode, TracedRib};
use crate::{median, quantile, Args, Report, RECONCILE_TOLERANCE};
use bench::{run_protocol_sim_hier, Proto, SimOptions, SimResult, Workload};
use graph::gen::{hierarchical, HierParams, HierTopology, WaxmanParams};
use graph::NodeId;
use igmp::{HostNode, PopulationNode};
use netsim::{host_addr, router_addr, Duration, NodeIdx, SimTime, Topology};
use node::ProtocolNode;
use pim::{Engine as PimEngine, PimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use unicast::OracleRib;
use wire::Group;

const BACKBONE: usize = 100;
const DOMAINS: usize = 100;
const DOMAIN_SIZE: usize = 9;
const GROUPS: usize = 30;
const SITES_PER_GROUP: usize = 20;
const SENDERS_PER_GROUP: usize = 2;
const PACKETS_PER_SENDER: u64 = 30;
const POPULATION: u64 = 100;

// The schedule `bench::run_protocol_sim_hier` follows; the traced
// build must repeat it to reproduce the run.
const JOIN_START: u64 = 20;
const SEND_START: u64 = 500;
const SEND_GAP: u64 = 25;
const COOLDOWN: u64 = 600;
/// Simulated ticks one run advances.
const END: u64 = SEND_START + PACKETS_PER_SENDER * SEND_GAP + COOLDOWN;

/// One seed's inputs.
struct Inputs {
    h: HierTopology,
    workloads: Vec<Workload>,
    opts: SimOptions,
}

/// `k` distinct values from `0..n`, in draw order.
fn distinct(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(par::mix(seed, 0x7e57, 1));
    let params = HierParams {
        backbone: WaxmanParams {
            nodes: BACKBONE,
            ..WaxmanParams::default()
        },
        domains: DOMAINS,
        domain_size: DOMAIN_SIZE,
        ..HierParams::default()
    };
    let h = hierarchical(&params, &mut rng);
    // Each group gets its own backbone RP and draws its member sites
    // from the domain leaves, so groups overlap on routers.
    let rps = distinct(&mut rng, BACKBONE, GROUPS);
    let workloads = rps
        .iter()
        .enumerate()
        .map(|(i, &rp)| {
            let members: Vec<NodeId> = distinct(&mut rng, DOMAINS, SITES_PER_GROUP)
                .into_iter()
                .map(|d| h.leaf(d))
                .collect();
            Workload {
                group: Group::test(i as u32 + 1),
                senders: members[..SENDERS_PER_GROUP].to_vec(),
                members,
                rendezvous: NodeId(rp as u32),
                population: POPULATION,
            }
        })
        .collect();
    let opts = SimOptions {
        packets_per_sender: PACKETS_PER_SENDER,
        seed: par::mix(seed, 0x7e57, 2),
        threads: 1,
        ..SimOptions::default()
    };
    Inputs { h, workloads, opts }
}

/// The outputs the traced run must reproduce.
fn key(r: &SimResult) -> (u64, u64, usize, u64) {
    (
        r.reception_fingerprint,
        r.events_dispatched,
        r.state_entries,
        r.control_pkts,
    )
}

/// Lowest share of the expected member receptions a correct run
/// delivers. The baseline reads 0.996 to 0.999 (a few site receptions
/// go missing with overlapping groups); losing a whole group's tree,
/// 1/30 of the receptions, falls below it.
const DELIVERY_FLOOR: f64 = 0.99;

/// Routers in the hierarchy.
const ROUTERS: usize = BACKBONE + DOMAINS * DOMAIN_SIZE;

/// Most multicast entries the routers can hold: one (*,G) and one
/// (S,G) per sender of every group on every router.
const MAX_STATE: usize = ROUTERS * GROUPS * (1 + SENDERS_PER_GROUP);

/// The run's own outputs are right: at least `DELIVERY_FLOOR` and no
/// more than the expected unique receptions, state within what the
/// groups can create, and some control traffic. Duplicates are allowed:
/// the SPT switchover window legitimately delivers a packet down both
/// trees.
fn valid(r: &SimResult) -> bool {
    r.deliveries <= r.expected_deliveries
        && r.deliveries as f64 >= DELIVERY_FLOOR * r.expected_deliveries as f64
        && r.state_entries > 0
        && r.state_entries <= MAX_STATE
        && r.control_pkts > 0
}

fn untraced(i: &Inputs) -> Option<SimResult> {
    catch_unwind(AssertUnwindSafe(|| {
        run_protocol_sim_hier(&i.h, Proto::PimSpt, &i.workloads, &i.opts)
    }))
    .ok()
}

fn outcome_notes(report: &mut Report, r: &SimResult) {
    let routers = ROUTERS as f64;
    report.note(format!(
        "delivery_ratio {} ratio ({} of {} member receptions)",
        r.deliveries as f64 / r.expected_deliveries as f64,
        r.deliveries,
        r.expected_deliveries
    ));
    report.note(format!(
        "state_per_router {} count",
        r.state_entries as f64 / routers
    ));
    report.note(format!(
        "ctrl_pkts_per_router {} count",
        r.control_pkts as f64 / routers
    ));
    report.note(format!(
        "events {} duplicates {} fingerprint {:#018x}",
        r.events_dispatched, r.duplicates, r.reception_fingerprint
    ));
}

/// Simulations the untraced run keeps going at once, one per CPU; each
/// world itself runs on one thread.
const THREADS: usize = 2;

/// Untraced run: repeated full simulations of one seed's inputs, two at
/// a time, with a memory-bound calibration kernel around every batch.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut cal = Calibration::new(Kernel::Memory, THREADS);
    // (batch, set-up s, run_until ms) per simulation that finished.
    let mut sims: Vec<(usize, f64, f64)> = Vec::new();
    let mut first: Option<SimResult> = None;
    let mut batches = 0;
    let start = Instant::now();
    // Batches of simultaneous simulations until the time is up, at
    // least one, whether or not any succeeds.
    while report.attempted == 0 || start.elapsed() < args.seconds {
        cal.sample();
        let batch = par::run_trials(THREADS, THREADS, |_| {
            let t0 = Instant::now();
            let i = inputs(args.seed);
            let r = untraced(&i);
            (t0.elapsed().as_secs_f64(), r)
        });
        for (total, r) in batch {
            report.attempted += 1;
            let Some(r) = r else {
                report.failed += 1;
                continue;
            };
            sims.push((batches, total - r.run_ms / 1e3, r.run_ms));
            let ok = valid(&r) && first.as_ref().is_none_or(|f| key(f) == key(&r));
            if !ok {
                report.failed += 1;
            }
            first.get_or_insert(r);
        }
        batches += 1;
    }
    cal.sample();
    report.correct = report.failed == 0;
    let Some(r) = first else {
        return report;
    };
    let host_ms: Vec<f64> = sims.iter().map(|s| s.2).collect();
    let host_setup: Vec<f64> = sims.iter().map(|s| s.1).collect();
    let run_ms: Vec<f64> = sims.iter().map(|s| s.2 * cal.factor(s.0)).collect();
    let setup: Vec<f64> = sims.iter().map(|s| s.1 * cal.factor(s.0)).collect();
    let rates: Vec<f64> = run_ms.iter().map(|ms| 1e3 / ms).collect();
    report.set("setup_s", median(&setup));
    report.set("trials_per_s", median(&rates));
    report.set("trial_ms.p50", quantile(&run_ms, 0.5));
    report.set("trial_ms.p90", quantile(&run_ms, 0.9));
    report.note(format!(
        "sim_ticks_per_s {} 1/s ({END} ticks per run, {} runs, calibrated)",
        END as f64 * median(&rates),
        run_ms.len()
    ));
    report.note(format!(
        "host (uncalibrated): setup_s {} s trials_per_s {} 1/s trial_ms.p50 {} ms \
         trial_ms.p90 {} ms",
        median(&host_setup),
        1e3 / median(&host_ms),
        quantile(&host_ms, 0.5),
        quantile(&host_ms, 0.9)
    ));
    report.note(cal.describe("memory kernel around each batch"));
    outcome_notes(&mut report, &r);
    report
}

type TracedRouter = ProtocolNode<TracedEngine<PimEngine>>;

/// What the traced build reports besides the span totals.
struct Traced {
    result: SimResult,
    oracle_build_ms: f64,
    world_build_ms: f64,
}

/// `bench::run_protocol_sim_hier` for `Proto::PimSpt` on one thread,
/// rebuilt from public pieces with every layer wrapped.
fn traced(i: &Inputs) -> Traced {
    let g = &i.h.graph;
    let workloads = &i.workloads;
    let opts = &i.opts;
    let topo = Topology::from_graph(g);
    let mut involved: BTreeSet<NodeId> = BTreeSet::new();
    for w in workloads {
        involved.extend(w.members.iter().copied());
        involved.extend(w.senders.iter().copied());
    }

    let t_rib = Instant::now();
    let mut ribs = OracleRib::for_all(g, &topo);
    let oracle_build_ms = t_rib.elapsed().as_secs_f64() * 1e3;
    let t_world = Instant::now();
    for &n in &involved {
        let h = host_addr(n, 0);
        for (k, rib) in ribs.iter_mut().enumerate() {
            if k != n.index() {
                rib.alias_host(h, router_addr(n));
            }
        }
    }

    let mut rib_iter = ribs.into_iter();
    let (mut world, _links) = topo.build_world(g, opts.seed, |plan| {
        let cfg = PimConfig {
            spt_policy: opts.pim.spt_policy,
            ..opts.pim
        };
        let engine = TracedEngine::new(PimEngine::new(plan.addr, plan.ifaces.len(), cfg));
        let rib = TracedRib::new(rib_iter.next().expect("rib per plan"));
        let mut r = ProtocolNode::new(engine, Box::new(rib));
        for w in workloads {
            r.engine_mut()
                .inner
                .set_rp_mapping(w.group, vec![router_addr(w.rendezvous)]);
        }
        Box::new(TracedNode::router(r))
    });

    let aggregate_at = |n: NodeId| {
        workloads
            .iter()
            .any(|w| w.population > 1 && w.members.contains(&n))
    };
    let mut host_of = BTreeMap::new();
    for &n in &involved {
        let h_addr = host_addr(n, 0);
        let aggregate = aggregate_at(n);
        let h_idx = if aggregate {
            world.add_node(Box::new(TracedNode::host(PopulationNode::new(h_addr))))
        } else {
            world.add_node(Box::new(TracedNode::host(HostNode::new(h_addr))))
        };
        let (_l, ifs) = world.add_lan(&[NodeIdx(n.index()), h_idx], Duration(1));
        world
            .node_mut::<TracedRouter>(NodeIdx(n.index()))
            .attach_host_lan(ifs[0], &[h_addr]);
        host_of.insert(n, (h_idx, aggregate));
    }

    let mut stagger = 0u64;
    for w in workloads {
        let group = w.group;
        let population = w.population;
        for &m in &w.members {
            let (h, aggregate) = host_of[&m];
            world.at(SimTime(JOIN_START + stagger % 40), move |w| {
                w.call_node(h, |n, ctx| {
                    span::span(Layer::IgmpHost, || {
                        if aggregate {
                            n.as_any_mut()
                                .downcast_mut::<PopulationNode>()
                                .expect("population node")
                                .join_members(ctx, group, population);
                        } else {
                            n.as_any_mut()
                                .downcast_mut::<HostNode>()
                                .expect("host node")
                                .join(ctx, group);
                        }
                    })
                });
            });
            stagger += 1;
        }
        for &s in &w.senders {
            let (h, aggregate) = host_of[&s];
            for k in 0..opts.packets_per_sender {
                world.at(
                    SimTime(SEND_START + (stagger % 17) + k * SEND_GAP),
                    move |w| {
                        w.call_node(h, |n, ctx| {
                            span::span(Layer::IgmpHost, || {
                                if aggregate {
                                    n.as_any_mut()
                                        .downcast_mut::<PopulationNode>()
                                        .expect("population node")
                                        .send_data(ctx, group);
                                } else {
                                    n.as_any_mut()
                                        .downcast_mut::<HostNode>()
                                        .expect("host node")
                                        .send_data(ctx, group);
                                }
                            });
                        });
                    },
                );
            }
            stagger += 3;
        }
    }

    let state_sample = std::rc::Rc::new(std::cell::Cell::new(0usize));
    let sample_at = SEND_START + (opts.packets_per_sender * SEND_GAP) / 2;
    {
        let state_sample = std::rc::Rc::clone(&state_sample);
        let nodes = g.node_count();
        world.at(SimTime(sample_at), move |w| {
            span::span(Layer::PimOther, || {
                let total = (0..nodes)
                    .map(|k| {
                        w.node::<TracedRouter>(NodeIdx(k))
                            .engine()
                            .inner
                            .entry_count()
                    })
                    .sum();
                state_sample.set(total);
            });
        });
    }
    world.parallelize(opts.threads);
    let world_build_ms = t_world.elapsed().as_secs_f64() * 1e3;

    let _ = span::take();
    let run_started = Instant::now();
    span::span(Layer::Netsim, || world.run_until(SimTime(END)));
    let run_ms = run_started.elapsed().as_secs_f64() * 1e3;

    let counters = world.counters();
    let mut result = SimResult {
        state_entries: state_sample.get(),
        run_ms,
        control_pkts: counters.total_control_pkts(),
        events_dispatched: counters.events_dispatched(),
        timers_fired: counters.timers_fired(),
        timers_skipped_stale: counters.timers_skipped_stale(),
        rx_pkts: counters.rx_pkts(),
        ..SimResult::default()
    };
    let weight_of = |n: NodeId, g: Group| -> u64 {
        workloads
            .iter()
            .filter(|w| w.group == g && w.members.contains(&n))
            .map(|w| w.population)
            .max()
            .unwrap_or(1)
            .max(1)
    };
    let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        fp ^= v;
        fp = fp.wrapping_mul(0x100_0000_01b3);
    };
    for (&n, &(h, aggregate)) in &host_of {
        let received: &[igmp::Received] = if aggregate {
            &world.node::<PopulationNode>(h).received
        } else {
            &world.node::<HostNode>(h).received
        };
        let member_of: BTreeSet<Group> = workloads
            .iter()
            .filter(|w| w.members.contains(&n))
            .map(|w| w.group)
            .collect();
        let mut seen = BTreeSet::new();
        for r in received {
            if !member_of.contains(&r.group) {
                continue;
            }
            let weight = weight_of(n, r.group);
            if seen.insert((r.group, r.source, r.seq)) {
                result.deliveries += weight;
            } else {
                result.duplicates += 1;
            }
            fold(n.index() as u64);
            fold(r.at.ticks());
            fold(u64::from(r.source.0));
            fold(u64::from(r.group.addr().0));
            fold(r.seq);
            fold(weight);
        }
    }
    result.reception_fingerprint = fp;
    Traced {
        result,
        oracle_build_ms,
        world_build_ms,
    }
}

/// Traced run: untraced and traced simulations of the seed's inputs in
/// turn, each traced run between two untraced ones, compared exactly,
/// with per-layer self times.
///
/// Reconciliation: the traced layer self times, less the trace's own
/// shadow wire work and the cost of its spans (calls times
/// `trace.span_ns`), must account for the `run_until` time of the
/// untraced runs on either side, whose mean cancels a steady drift of
/// the host's speed. The median share left over across traced runs must
/// stay within `RECONCILE_TOLERANCE`.
pub fn trace(args: &Args) -> Report {
    let mut report = Report::default();
    let i = inputs(args.seed);
    let span_ns = span::empty_span_ns();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut layers_ms = Vec::new();
    let mut span_cost_ms = Vec::new();
    let mut remainder_ms = Vec::new();
    let mut remainder_frac = Vec::new();
    let mut last = None;
    let start = Instant::now();
    let mut before = untraced(&i);
    if let Some(b) = &before {
        untraced_ms.push(b.run_ms);
    }
    // Traced runs until the time is up, at least one, whether or not
    // any succeeds. An operation is a traced run and the untraced run
    // after it.
    while report.attempted == 0 || start.elapsed() < args.seconds {
        report.attempted += 1;
        let _ = span::take();
        let tr = catch_unwind(AssertUnwindSafe(|| traced(&i))).ok();
        let totals = span::take();
        let after = untraced(&i);
        if let Some(a) = &after {
            untraced_ms.push(a.run_ms);
        }
        match (&before, tr, &after) {
            (Some(b), Some(t), Some(a)) if key(b) == key(&t.result) && key(a) == key(b) => {
                let base_ms = (b.run_ms + a.run_ms) / 2.0;
                let spans = totals.calls.iter().sum::<u64>() as f64 * span_ns / 1e6;
                let layers = totals.total_ms() - totals.ms(Layer::WireShadow) - spans;
                traced_ms.push(t.result.run_ms);
                layers_ms.push(layers);
                span_cost_ms.push(spans);
                remainder_ms.push(base_ms - layers);
                remainder_frac.push((base_ms - layers) / base_ms);
                last = Some((t, totals));
            }
            _ => report.failed += 1,
        }
        before = after;
    }
    let (Some(plain), Some((t, totals))) = (before, last) else {
        report.correct = false;
        return report;
    };
    let r = &t.result;
    let run_ms = median(&untraced_ms);
    let remainder = median(&remainder_frac);
    let reconciled = remainder.abs() <= RECONCILE_TOLERANCE;
    report.correct = report.failed == 0 && reconciled;

    let routers = ROUTERS as f64;
    let per = |total: u64, n: u64| total as f64 / n.max(1) as f64;
    report.set("unicast.oracle_build_ms", t.oracle_build_ms);
    report.set("netsim.world_build_ms", t.world_build_ms);
    report.set("netsim.run_ms", run_ms);
    report.set("netsim.self_ms", totals.ms(Layer::Netsim));
    report.set("netsim.events", r.events_dispatched as f64);
    report.set("netsim.deliver_events", r.rx_pkts as f64);
    report.set("netsim.timer_events", r.timers_fired as f64);
    report.set("netsim.stale_timers", r.timers_skipped_stale as f64);
    report.set(
        "netsim.ns_per_event",
        run_ms * 1e6 / r.events_dispatched as f64,
    );
    report.set(
        "node.on_packet_calls",
        totals.calls(Layer::NodePacket) as f64,
    );
    report.set("node.on_packet_self_ms", totals.ms(Layer::NodePacket));
    report.set("node.on_timer_calls", totals.calls(Layer::NodeTimer) as f64);
    report.set("node.on_timer_self_ms", totals.ms(Layer::NodeTimer));
    report.set("node.other_self_ms", totals.ms(Layer::NodeOther));
    report.set(
        "wire.decode_frames",
        totals.count(Count::DecodeFrames) as f64,
    );
    report.set(
        "wire.decode_ns",
        per(
            totals.count(Count::DecodeNs),
            totals.count(Count::DecodeFrames),
        ),
    );
    report.set("wire.encode_msgs", totals.count(Count::EncodeMsgs) as f64);
    report.set(
        "wire.encode_ns",
        per(
            totals.count(Count::EncodeNs),
            totals.count(Count::EncodeMsgs),
        ),
    );
    for (layer, calls, ms) in [
        (
            Layer::PimControl,
            "pim.on_control_calls",
            "pim.on_control_ms",
        ),
        (Layer::PimData, "pim.on_data_calls", "pim.on_data_ms"),
        (Layer::PimTick, "pim.tick_calls", "pim.tick_ms"),
        (
            Layer::PimDeadline,
            "pim.next_deadline_calls",
            "pim.next_deadline_ms",
        ),
    ] {
        report.set(calls, totals.calls(layer) as f64);
        report.set(ms, totals.ms(layer));
    }
    report.set("pim.other_ms", totals.ms(Layer::PimOther));
    report.set(
        "pim.tick_useful_ratio",
        per(
            totals.count(Count::UsefulTicks),
            totals.calls(Layer::PimTick),
        ),
    );
    report.set(
        "unicast.route_calls",
        totals.calls(Layer::UnicastRoute) as f64,
    );
    report.set(
        "unicast.route_ns",
        per(
            totals.self_ns[Layer::UnicastRoute as usize],
            totals.calls(Layer::UnicastRoute),
        ),
    );
    report.set("unicast.other_ms", totals.ms(Layer::UnicastOther));
    report.set("igmp.host_calls", totals.calls(Layer::IgmpHost) as f64);
    report.set("igmp.host_ms", totals.ms(Layer::IgmpHost));
    report.set(
        "sim.delivery_ratio",
        r.deliveries as f64 / plain.expected_deliveries as f64,
    );
    report.set("sim.state_per_router", r.state_entries as f64 / routers);
    report.set("sim.ctrl_pkts_per_router", r.control_pkts as f64 / routers);
    report.set("reconcile.layers_ms", median(&layers_ms));
    report.set("reconcile.span_cost_ms", median(&span_cost_ms));
    report.set("reconcile.remainder_ms", median(&remainder_ms));
    report.set("reconcile.remainder_frac", remainder);
    report.set("trace.span_ns", span_ns);
    report.set("trace.wire_shadow_ms", totals.ms(Layer::WireShadow));
    report.set(
        "trace.overhead_ratio",
        median(&traced_ms) / median(&untraced_ms),
    );
    report.note(format!(
        "traced runs {}: fingerprint {:#018x} events {} state {} control {} reproduced",
        traced_ms.len(),
        r.reception_fingerprint,
        r.events_dispatched,
        r.state_entries,
        r.control_pkts
    ));
    report.note(format!(
        "reconcile: traced layer self times less shadow wire work and span cost {} ms \
         vs untraced netsim.run_ms {run_ms} ms; median remainder {remainder} of the \
         bracketing untraced runs over {} traced runs (tolerance {RECONCILE_TOLERANCE}; \
         per traced run {:?}): {}",
        median(&layers_ms),
        remainder_frac.len(),
        remainder_frac,
        if reconciled { "ok" } else { "FAILED" }
    ));
    report
}
