//! Shared experiment infrastructure for the figure-regeneration binaries
//! (see DESIGN.md §2 for the experiment index):
//!
//! * [`stats`] — mean/std-dev for the Monte-Carlo figures;
//! * [`Workload`]/[`Proto`]/[`run_protocol_sim`] — build a full protocol
//!   simulation (PIM in SPT or shared-tree mode, DVMRP, or CBT) over any
//!   [`graph::Graph`], drive a membership+traffic scenario, and collect
//!   the paper's overhead metrics (router state, control packets, data
//!   packets, link concentration, deliveries);
//! * [`cli`] — tiny flag parsing shared by the binaries.

#![warn(missing_docs)]

use cbt::{CbtConfig, CbtEngine, CbtRouter};
use dvmrp::{DvmrpConfig, DvmrpEngine, DvmrpRouter};
use graph::gen::HierTopology;
use graph::{Graph, NodeId};
use igmp::{HostNode, PopulationNode};
use netsim::{
    host_addr, router_addr, CtrlProto, Duration, LinkCapacity, LinkKind, NodeIdx, SimTime, Topology,
};
use pim::{Engine as PimEngine, PimConfig, PimRouter};
use std::collections::BTreeSet;
use unicast::OracleRib;
use wire::Group;

/// Mean and standard deviation of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator).
    pub sd: f64,
}

/// Compute sample statistics.
pub fn stats(xs: &[f64]) -> Stats {
    assert!(!xs.is_empty(), "empty sample");
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let sd = if xs.len() < 2 {
        0.0
    } else {
        (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
    };
    Stats { mean, sd }
}

/// One multicast group's membership and traffic for a protocol run.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The group.
    pub group: Group,
    /// Routers with a member host attached.
    pub members: Vec<NodeId>,
    /// Routers with a sending host attached.
    pub senders: Vec<NodeId>,
    /// The RP (PIM) / core (CBT) router for the group. Ignored by DVMRP.
    pub rendezvous: NodeId,
    /// Aggregate group members behind each member router. `1` attaches
    /// one explicit [`HostNode`] per site (the classic workloads,
    /// byte-identical to before this knob existed); `> 1` attaches one
    /// [`PopulationNode`] holding that many members, and deliveries are
    /// accounted member-weighted (each unique reception at the site
    /// counts `population` deliveries).
    pub population: u64,
}

/// Which protocol to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// PIM sparse mode with immediate SPT switchover.
    PimSpt,
    /// PIM sparse mode pinned to the RP shared tree (policy Never).
    PimShared,
    /// Dense-mode truncated-broadcast-and-prune.
    Dvmrp,
    /// Core Based Trees.
    Cbt,
}

impl Proto {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Proto::PimSpt => "PIM-SPT",
            Proto::PimShared => "PIM-shared",
            Proto::Dvmrp => "DVMRP",
            Proto::Cbt => "CBT",
        }
    }
}

/// Overhead metrics from one protocol run — the paper's §1 efficiency
/// measures ("state, control message processing, and data packet
/// processing required across the entire network").
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// Multicast forwarding entries summed over all routers at the end.
    pub state_entries: usize,
    /// Control packets transmitted network-wide.
    pub control_pkts: u64,
    /// Data packets transmitted network-wide (per-link transits).
    pub data_pkts: u64,
    /// Distinct links that carried at least one data packet.
    pub data_links_used: usize,
    /// The hottest link's data-packet count (traffic concentration).
    pub max_link_data: u64,
    /// Unique packets received by member hosts (host-side truth).
    pub deliveries: u64,
    /// Duplicate packet receptions at member hosts.
    pub duplicates: u64,
    /// The deliveries a perfect protocol would make.
    pub expected_deliveries: u64,
    /// Data packets per router-router link, indexed by graph edge id.
    pub link_data: Vec<u64>,
    /// Events the world dispatched (deliveries + timers + scripts) — the
    /// event-loop cost of the run; tracks state churn, not wall-clock.
    pub events_dispatched: u64,
    /// Timer events that fired.
    pub timers_fired: u64,
    /// Stale timer-heap entries skipped (lazy-deletion cost of
    /// reschedulable timers).
    pub timers_skipped_stale: u64,
    /// Packets delivered to nodes (receive side of the event loop).
    pub rx_pkts: u64,
    /// Control packets by sub-protocol ([`CtrlProto::ALL`] order) —
    /// attributes `control_pkts` to PIM vs IGMP vs DVMRP vs CBT vs the
    /// unicast substrate, classified once at tx time.
    pub control_breakdown: [(CtrlProto, u64); 6],
    /// Per-event-kind attribution ([`netsim::SimProfile`]), collected
    /// only when [`SimOptions::profile`] is set. Event counts are
    /// deterministic; nanosecond columns are wall-clock.
    pub profile: Option<netsim::SimProfile>,
    /// FNV-1a fold of every member site's reception log (site, arrival
    /// tick, source, group, sequence, member weight) in site order — a
    /// deterministic digest of *when and what every member received*,
    /// a pure function of the inputs and the seed.
    pub reception_fingerprint: u64,
    /// Wall-clock milliseconds spent inside `World::run_until` alone —
    /// the event-loop cost, excluding topology generation, the all-pairs
    /// oracle, world construction, and metric collection. Per-event cost
    /// is `run_ms / events_dispatched`; wall-clock, varies run to run.
    pub run_ms: f64,
    /// Data packets tail-dropped by bounded transmit queues (zero unless
    /// [`SimOptions::capacity`] caps the links).
    pub queue_drops_data: u64,
    /// Control packets tail-dropped by bounded transmit queues.
    pub queue_drops_ctrl: u64,
    /// Packets ECN-marked while crossing a congested transmit queue.
    pub ecn_marks: u64,
    /// Deepest transmit-queue backlog observed on any link, in bytes.
    pub peak_queue_bytes: u64,
}

/// Simulation schedule shared by all protocols.
const JOIN_START: u64 = 20;
const SEND_START: u64 = 500;
const SEND_GAP: u64 = 25;
const COOLDOWN: u64 = 600;

/// Knobs for [`run_protocol_sim_opts`] beyond the common defaults.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Packets each sender transmits.
    pub packets_per_sender: u64,
    /// World RNG seed.
    pub seed: u64,
    /// Independent per-receiver drop probability on every router-router
    /// link (failure injection; applies to control and data alike).
    pub link_loss: f64,
    /// PIM configuration (both PIM modes; `spt_policy` is overridden by
    /// the chosen [`Proto`]).
    pub pim: PimConfig,
    /// Inert: the simulation always runs on one event heap, whatever
    /// this says. It exists only because the frozen benchmark under
    /// `perfbench/` sets it; no other code should. Parallelism lives at
    /// trial level (`par::run_trials`).
    pub threads: usize,
    /// Collect a [`netsim::SimProfile`] (per-event-kind wall-clock and
    /// event-count attribution) into [`SimResult::profile`]. Purely
    /// observational: every deterministic output is unchanged.
    pub profile: bool,
    /// Transmit capacity applied to every router-router link
    /// ([`LinkCapacity::UNLIMITED`] — the default — leaves the capacity
    /// model disabled and the trace byte-identical to before the model
    /// existed). Host LANs are never capped: the congestion under study
    /// is transit-network congestion.
    pub capacity: LinkCapacity,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            packets_per_sender: 12,
            seed: 1,
            link_loss: 0.0,
            pim: PimConfig::default(),
            threads: 1,
            profile: false,
            capacity: LinkCapacity::UNLIMITED,
        }
    }
}

/// Run `proto` over `g` with the given workloads: members join, every
/// sender transmits `packets_per_sender` packets, and the run continues
/// long enough for timers to settle. Returns the overhead metrics.
///
/// All protocols share identical topology, host placement, schedule, and
/// (oracle) unicast routing, so differences in the result are differences
/// between the multicast protocols alone.
pub fn run_protocol_sim(
    g: &Graph,
    proto: Proto,
    workloads: &[Workload],
    packets_per_sender: u64,
    seed: u64,
) -> SimResult {
    run_protocol_sim_opts(
        g,
        proto,
        workloads,
        &SimOptions {
            packets_per_sender,
            seed,
            ..SimOptions::default()
        },
    )
}

/// [`run_protocol_sim_opts`] over a hierarchical topology.
pub fn run_protocol_sim_hier(
    h: &HierTopology,
    proto: Proto,
    workloads: &[Workload],
    opts: &SimOptions,
) -> SimResult {
    run_protocol_sim_opts(&h.graph, proto, workloads, opts)
}

/// [`run_protocol_sim`] with full [`SimOptions`] control.
pub fn run_protocol_sim_opts(
    g: &Graph,
    proto: Proto,
    workloads: &[Workload],
    opts: &SimOptions,
) -> SimResult {
    let packets_per_sender = opts.packets_per_sender;
    let seed = opts.seed;
    let topo = Topology::from_graph(g);

    // Which routers need an attached host.
    let mut involved: BTreeSet<NodeId> = BTreeSet::new();
    for w in workloads {
        involved.extend(w.members.iter().copied());
        involved.extend(w.senders.iter().copied());
    }

    // Oracle unicast routing with every host aliased everywhere.
    let mut ribs = OracleRib::for_all(g, &topo);
    for &n in &involved {
        let h = host_addr(n, 0);
        for (i, rib) in ribs.iter_mut().enumerate() {
            if i != n.index() {
                rib.alias_host(h, router_addr(n));
            }
        }
    }

    let mut rib_iter = ribs.into_iter();
    let (mut world, links) = topo.build_world(g, seed, |plan| match proto {
        Proto::PimSpt | Proto::PimShared => {
            let cfg = PimConfig {
                spt_policy: if proto == Proto::PimSpt {
                    opts.pim.spt_policy
                } else {
                    pim::SptPolicy::Never
                },
                ..opts.pim
            };
            let engine = PimEngine::new(plan.addr, plan.ifaces.len(), cfg);
            let mut r = PimRouter::new(engine, Box::new(rib_iter.next().expect("rib per plan")));
            for w in workloads {
                r.engine_mut()
                    .set_rp_mapping(w.group, vec![router_addr(w.rendezvous)]);
            }
            Box::new(r)
        }
        Proto::Dvmrp => {
            let engine = DvmrpEngine::new(plan.addr, plan.ifaces.len(), DvmrpConfig::default());
            let r = DvmrpRouter::new(engine, Box::new(rib_iter.next().expect("rib per plan")));
            Box::new(r)
        }
        Proto::Cbt => {
            let engine = CbtEngine::new(plan.addr, CbtConfig::default());
            let mut r = CbtRouter::new(engine, Box::new(rib_iter.next().expect("rib per plan")));
            for w in workloads {
                r.engine_mut().set_core(w.group, router_addr(w.rendezvous));
            }
            Box::new(r)
        }
    });

    if opts.link_loss > 0.0 {
        for &l in &links {
            world.set_link_loss(l, opts.link_loss);
        }
    }
    if !opts.capacity.is_unlimited() {
        for &l in &links {
            world.set_link_capacity(l, opts.capacity);
        }
    }

    // Attach one host node per involved router: an explicit HostNode, or
    // a PopulationNode when any workload puts an aggregate membership
    // (population > 1) behind it. Both speak IGMP on the same LAN shape,
    // so the routers can't tell the difference.
    let aggregate_at = |n: NodeId| {
        workloads
            .iter()
            .any(|w| w.population > 1 && w.members.contains(&n))
    };
    let mut host_of = std::collections::BTreeMap::new();
    for &n in &involved {
        let h_addr = host_addr(n, 0);
        let aggregate = aggregate_at(n);
        let h_idx = if aggregate {
            world.add_node(Box::new(PopulationNode::new(h_addr)))
        } else {
            world.add_node(Box::new(HostNode::new(h_addr)))
        };
        let (_l, ifs) = world.add_lan(&[NodeIdx(n.index()), h_idx], Duration(1));
        match proto {
            Proto::PimSpt | Proto::PimShared => world
                .node_mut::<PimRouter>(NodeIdx(n.index()))
                .attach_host_lan(ifs[0], &[h_addr]),
            Proto::Dvmrp => world
                .node_mut::<DvmrpRouter>(NodeIdx(n.index()))
                .attach_host_lan(ifs[0], &[h_addr]),
            Proto::Cbt => world
                .node_mut::<CbtRouter>(NodeIdx(n.index()))
                .attach_host_lan(ifs[0], &[h_addr]),
        }
        host_of.insert(n, (h_idx, aggregate));
    }

    // Schedule joins and transmissions.
    let mut stagger = 0u64;
    for w in workloads {
        let group = w.group;
        let population = w.population;
        for &m in &w.members {
            let (h, aggregate) = host_of[&m];
            world.at(SimTime(JOIN_START + stagger % 40), move |w| {
                w.call_node(h, |n, ctx| {
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
                });
            });
            stagger += 1;
        }
        for &s in &w.senders {
            let (h, aggregate) = host_of[&s];
            for k in 0..packets_per_sender {
                world.at(
                    SimTime(SEND_START + (stagger % 17) + k * SEND_GAP),
                    move |w| {
                        w.call_node(h, |n, ctx| {
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
                    },
                );
            }
            stagger += 3;
        }
    }

    // Sample total router state while traffic is flowing (dense-mode
    // state is soft and would be garbage-collected by the end of the
    // cooldown, hiding exactly the overhead the paper measures).
    let state_sample = std::rc::Rc::new(std::cell::Cell::new(0usize));
    let sample_at = SEND_START + (packets_per_sender * SEND_GAP) / 2;
    {
        let state_sample = std::rc::Rc::clone(&state_sample);
        let nodes = g.node_count();
        world.at(SimTime(sample_at), move |w| {
            let mut total = 0;
            for i in 0..nodes {
                total += match proto {
                    Proto::PimSpt | Proto::PimShared => {
                        w.node::<PimRouter>(NodeIdx(i)).engine().entry_count()
                    }
                    Proto::Dvmrp => w.node::<DvmrpRouter>(NodeIdx(i)).engine().entry_count(),
                    Proto::Cbt => w.node::<CbtRouter>(NodeIdx(i)).engine().entry_count(),
                };
            }
            state_sample.set(total);
        });
    }

    let end = SEND_START + packets_per_sender * SEND_GAP + COOLDOWN;
    if opts.profile {
        world.enable_profile();
    }
    let run_started = std::time::Instant::now();
    world.run_until(SimTime(end));
    let run_ms = run_started.elapsed().as_secs_f64() * 1e3;

    // Collect metrics.
    let mut result = SimResult {
        state_entries: state_sample.get(),
        run_ms,
        profile: world.profile(),
        ..SimResult::default()
    };
    // Link metrics cover router-router links only: the member host LANs
    // carry identical delivery traffic under every protocol and would
    // otherwise mask the transit-network differences the paper measures.
    let counters = world.counters();
    result.control_pkts = counters.total_control_pkts();
    result.control_breakdown = counters.control_breakdown();
    result.events_dispatched = counters.events_dispatched();
    result.timers_fired = counters.timers_fired();
    result.timers_skipped_stale = counters.timers_skipped_stale();
    result.rx_pkts = counters.rx_pkts();
    result.queue_drops_data = counters.queue_drops_data();
    result.queue_drops_ctrl = counters.queue_drops_ctrl();
    result.ecn_marks = counters.ecn_marks();
    result.peak_queue_bytes = counters.peak_queue_bytes();
    result.link_data = vec![0; g.edge_count()];
    for (l, st) in counters.links() {
        if world.link(l).kind != LinkKind::PointToPoint {
            continue;
        }
        // build_world wires link k to graph edge k, so p2p link ids are
        // edge indices.
        result.link_data[l.0] = st.data_pkts;
        result.data_pkts += st.data_pkts;
        if st.data_pkts > 0 {
            result.data_links_used += 1;
        }
        result.max_link_data = result.max_link_data.max(st.data_pkts);
    }
    // Host-side delivery accounting: unique (source, seq) receptions per
    // member site, with duplicates tallied separately. Aggregate sites
    // weight each reception by the member population behind the LAN, so
    // `deliveries` counts *member* receptions in both representations
    // (population 1 degenerates to the explicit accounting exactly).
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
    for w in workloads {
        let site_weight = w.population.max(1);
        for &s in &w.senders {
            let other_sites = w.members.iter().filter(|&&m| m != s).count() as u64;
            result.expected_deliveries += other_sites * site_weight * packets_per_sender;
        }
    }
    result
}

/// Minimal CLI parsing for the experiment binaries: `--seed N`,
/// `--trials N`, `--quick` (divides trials by 10), `--smoke` (tiny
/// bin-chosen trial count for the CI gate), `--threads N` (trial
/// fan-out; output is bit-identical for every value), `--groups N`
/// (fig2b: groups per network), `--nodes N,N,...` (simbench: Waxman
/// scaling sweep sizes), `--hier N,N,...` / `--members N,N,...`
/// (simbench: hierarchical router counts and aggregate-member totals),
/// `--congestion` (bounded-capacity sweeps), and `--json PATH`
/// (machine-readable timing record).
///
/// Each binary passes its usage line, and a flag is accepted only if
/// that line names it. `--help` prints the usage and exits 0; a bad flag
/// or value prints the error and the usage to stderr and exits 2.
pub mod cli {
    /// Parsed common flags.
    #[derive(Clone, Debug)]
    pub struct Args {
        /// RNG seed.
        pub seed: u64,
        /// Monte-Carlo trials per configuration point.
        pub trials: usize,
        /// Worker threads for the deterministic trial fan-out.
        pub threads: usize,
        /// Where to write the machine-readable timing record, if asked.
        pub json: Option<String>,
        /// Override for a bin-specific size knob (fig2b: groups per
        /// network).
        pub groups: Option<usize>,
        /// Node-count sweep override (simbench: comma-separated router
        /// counts for the Waxman scaling table).
        pub nodes: Option<Vec<usize>>,
        /// Hierarchical sweep override (simbench: comma-separated router
        /// counts for the backbone+domains scaling table).
        pub hier: Option<Vec<usize>>,
        /// Aggregate-membership sweep override (simbench: comma-separated
        /// total member counts at the fixed hierarchical size).
        pub members: Option<Vec<u64>>,
        /// `--smoke` was given (bins may also shrink non-trial knobs).
        pub smoke: bool,
        /// `--congestion` was given (simbench: run the bounded-capacity
        /// sweep; overhead: cap every link and report shed load).
        pub congestion: bool,
    }

    /// Parse `std::env::args` against `usage` with the given default
    /// trial count; `--smoke` uses `smoke_trials` unless `--trials`
    /// overrides it. Exits the process on `--help` and on bad input.
    pub fn parse_smoke(usage: &str, default_trials: usize, smoke_trials: usize) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            println!("{usage}");
            std::process::exit(0);
        }
        parse_args(usage, &argv, default_trials, smoke_trials).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{usage}");
            std::process::exit(2)
        })
    }

    /// [`parse_smoke`] with a derived smoke trial count (default/25, at
    /// least 1).
    pub fn parse(usage: &str, default_trials: usize) -> Args {
        parse_smoke(usage, default_trials, (default_trials / 25).max(1))
    }

    /// Whether `usage` names `flag`.
    fn offers(usage: &str, flag: &str) -> bool {
        usage
            .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
            .any(|w| w == flag)
    }

    /// The parser behind [`parse_smoke`], on an explicit argument list
    /// (program name excluded).
    fn parse_args(
        usage: &str,
        argv: &[String],
        default_trials: usize,
        smoke_trials: usize,
    ) -> Result<Args, String> {
        let mut args = Args {
            seed: 1994, // the paper's year; any seed reproduces the shape
            trials: default_trials,
            threads: par::default_threads(),
            json: None,
            groups: None,
            nodes: None,
            hier: None,
            members: None,
            smoke: false,
            congestion: false,
        };
        fn num<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
            v.and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("{flag} needs a number"))
        }
        fn csv<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<Vec<T>, String> {
            v.and_then(|s| s.split(',').map(|p| p.trim().parse().ok()).collect())
                .ok_or_else(|| format!("{flag} needs comma-separated counts"))
        }
        let mut explicit_trials = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_str();
            if !offers(usage, flag) {
                return Err(format!("unknown flag {flag}"));
            }
            match flag {
                "--seed" => args.seed = num(flag, it.next())?,
                "--trials" => {
                    args.trials = num(flag, it.next())?;
                    explicit_trials = true;
                }
                "--threads" => {
                    args.threads = num(flag, it.next())?;
                    if args.threads == 0 {
                        return Err("--threads needs a positive number".into());
                    }
                }
                "--json" => {
                    args.json = Some(it.next().ok_or("--json needs a path")?.clone());
                }
                "--groups" => args.groups = Some(num(flag, it.next())?),
                "--nodes" => args.nodes = Some(csv(flag, it.next())?),
                "--hier" => args.hier = Some(csv(flag, it.next())?),
                "--members" => args.members = Some(csv(flag, it.next())?),
                "--quick" => args.trials = (args.trials / 10).max(1),
                "--smoke" => args.smoke = true,
                "--congestion" => args.congestion = true,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.smoke && !explicit_trials {
            args.trials = smoke_trials;
        }
        Ok(args)
    }
}

/// Wall-clock timing and the hand-rolled JSON records the bench binaries
/// emit (`BENCH_fig2.json`, `BENCH_sim.json`) so future PRs have a
/// recorded perf trajectory to regress against.
pub mod perf {
    use std::time::Instant;

    /// Run `f`, returning its value and the elapsed wall time in
    /// milliseconds.
    pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let v = f();
        (v, t.elapsed().as_secs_f64() * 1e3)
    }

    /// Write `json` to `path` and log the write on stdout (comment-style,
    /// so figure output stays machine-greppable).
    pub fn write_json(path: &str, json: &str) {
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("# wrote {path}");
    }

    /// The common timing block of a bench JSON record. `wall_ms_1t` is
    /// the same sweep re-run with `--threads 1` (equal by construction
    /// to the multi-thread output — the speedup is free of any
    /// result-level caveat).
    pub fn timing_fields(threads: usize, trials: usize, wall_ms: f64, wall_ms_1t: f64) -> String {
        format!(
            "\"threads\": {threads}, \"trials\": {trials}, \"wall_ms\": {wall_ms:.1}, \
             \"trials_per_sec\": {:.2}, \"wall_ms_1thread\": {wall_ms_1t:.1}, \
             \"speedup_vs_1thread\": {:.2}",
            trials as f64 / (wall_ms / 1e3),
            wall_ms_1t / wall_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stats_basics() {
        let s = stats(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.sd - 1.0).abs() < 1e-12);
        let single = stats(&[5.0]);
        assert_eq!(single.sd, 0.0);
    }

    /// The four protocols deliver the same packets on the same scenario —
    /// the comparison harness itself is sound.
    #[test]
    fn all_protocols_deliver_everything() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = graph::gen::random_connected(
            &graph::gen::RandomGraphParams {
                nodes: 12,
                avg_degree: 3.0,
                delay_range: (1, 3),
            },
            &mut rng,
        );
        let w = Workload {
            group: Group::test(1),
            members: vec![NodeId(2), NodeId(7), NodeId(11)],
            senders: vec![NodeId(7)],
            rendezvous: NodeId(0),
            population: 1,
        };
        for proto in [Proto::PimSpt, Proto::PimShared, Proto::Dvmrp, Proto::Cbt] {
            let r = run_protocol_sim(&g, proto, std::slice::from_ref(&w), 6, 9);
            assert_eq!(
                r.deliveries,
                r.expected_deliveries,
                "{} dropped packets: {r:?}",
                proto.name()
            );
            assert!(r.state_entries > 0, "{}", proto.name());
            assert!(r.control_pkts > 0, "{}", proto.name());
        }
    }

    /// Dense mode touches more links with data than sparse mode on a
    /// sparse group — the heart of the paper's motivation.
    #[test]
    fn dvmrp_floods_wider_than_pim() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = graph::gen::random_connected(
            &graph::gen::RandomGraphParams {
                nodes: 20,
                avg_degree: 4.0,
                delay_range: (1, 3),
            },
            &mut rng,
        );
        let w = Workload {
            group: Group::test(1),
            members: vec![NodeId(3), NodeId(17)],
            senders: vec![NodeId(17)],
            rendezvous: NodeId(5),
            population: 1,
        };
        let pim = run_protocol_sim(&g, Proto::PimSpt, std::slice::from_ref(&w), 8, 2);
        let dvm = run_protocol_sim(&g, Proto::Dvmrp, &[w], 8, 2);
        assert!(
            dvm.data_links_used > pim.data_links_used,
            "dense {} vs sparse {}",
            dvm.data_links_used,
            pim.data_links_used
        );
        assert!(dvm.data_pkts > pim.data_pkts);
    }
}
