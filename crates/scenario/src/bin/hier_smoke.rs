//! Hierarchical-scale smoke test: all three protocols over a wide-area
//! backbone + stub-domain topology with aggregate member populations.
//!
//! ```text
//! hier_smoke [--domains N] [--population N] [--seed N]
//! ```
//!
//! Builds one hierarchical internetwork (Waxman backbone, stub domains of
//! nine routers each — 500 routers at the default 50 domains), attaches a
//! [`igmp::PopulationNode`] aggregate site to every domain's leaf router
//! (10^4 members total at the default population of 200), and runs each of
//! PIM / DVMRP / CBT over it with the oracle unicast substrate. A warm-up
//! train from the first site absorbs the PIM shared-tree → SPT switchover
//! transient; afterwards every probe packet must reach every other site
//! and the full oracle battery must hold — including the site-scaled state
//! bound, which fails if any router's table grows with *members* rather
//! than *sites*. Exits nonzero on any violation.
//!
//! This is the scenario-layer counterpart of `simbench --hier`: simbench
//! measures throughput and fingerprints, this checks protocol invariants
//! at the same scale.

use graph::gen::{hierarchical, HierParams, WaxmanParams};
use netsim::{host_addr, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenario::{
    build_net_aggregate, check_bounded_state, check_delivery, check_structure, Protocol, Substrate,
    Violation,
};
use wire::Group;

/// Warm-up packets (absorb RP-tree → SPT switchover losses).
const TRAIN: u64 = 10;
/// Checked probe packets, sent after the warm-up settles.
const PROBES: u64 = 20;
/// Probe stream start tick (joins at 20.. have long converged).
const PROBE_START: u64 = 600;
/// Gap between probe packets.
const PROBE_GAP: u64 = 25;
/// Run horizon: probes end at 1075; generous in-flight margin.
const CHECK_AT: u64 = 1600;

fn usage() -> ! {
    eprintln!("usage: hier_smoke [--domains N] [--population N] [--seed N]");
    std::process::exit(2);
}

fn main() {
    let mut domains = 50usize;
    let mut population = 200u64;
    let mut seed = 11u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |what: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{what} needs a number");
                usage()
            })
        };
        match a.as_str() {
            "--domains" => domains = num("--domains") as usize,
            "--population" => population = num("--population"),
            "--seed" => seed = num("--seed"),
            _ => usage(),
        }
    }

    let params = HierParams {
        backbone: WaxmanParams {
            nodes: domains.max(3),
            ..WaxmanParams::default()
        },
        domains,
        domain_size: 9,
        ..HierParams::default()
    };
    let mut rng = StdRng::seed_from_u64(par::mix(seed, 8, domains as u64));
    let h = hierarchical(&params, &mut rng);

    // One aggregate site per domain, at the leaf router.
    let host_routers: Vec<_> = (0..h.domains).map(|d| h.leaf(d)).collect();
    let populations = vec![population; host_routers.len()];
    let total_members: u64 = populations.iter().sum();
    let group = Group::test(1);
    println!(
        "hier_smoke routers={} domains={} members={}",
        h.node_count(),
        h.domains,
        total_members,
    );

    let mut failed = false;
    for proto in Protocol::ALL {
        let mut net = build_net_aggregate(
            &h.graph,
            proto,
            Substrate::Oracle,
            group,
            graph::NodeId(0),
            &host_routers,
            &populations,
            par::mix(seed, 9, proto as u64),
        );
        for slot in 0..host_routers.len() {
            net.join_at(slot, 20 + slot as u64);
        }
        net.send_at(0, 100, TRAIN, 40);
        net.send_at(0, PROBE_START, PROBES, PROBE_GAP);
        net.world.run_until(SimTime(CHECK_AT));

        let members: Vec<u32> = (1..host_routers.len() as u32).collect();
        let source = host_addr(host_routers[0], 0);
        let expected: Vec<u64> = (TRAIN..TRAIN + PROBES).collect();
        let mut violations: Vec<Violation> = check_structure(&net);
        violations.extend(check_delivery(&net, &members, source, &expected));
        violations.extend(check_bounded_state(&net));

        let events = net.world.counters().events_dispatched();
        if violations.is_empty() {
            println!("hier_smoke {:<5} PASS events={events}", proto.name());
        } else {
            failed = true;
            println!(
                "hier_smoke {:<5} FAIL events={events} violations={}",
                proto.name(),
                violations.len()
            );
            for v in violations.iter().take(10) {
                println!("  {} node {}: {}", v.oracle, v.node, v.detail);
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
