//! Overload smoke test: the two congestion workloads from the capacity
//! model run against all three protocols under the full oracle battery.
//!
//! ```text
//! overload_smoke [--seed N]
//! ```
//!
//! Two workloads on the diamond topology, each with the r1-r2 link
//! (link 1 — the RP-side edge) capped to a few bytes per tick while the
//! load is applied, then restored before the probe train:
//!
//! * **flash-crowd** — cycles of synchronized join/leave churn across
//!   every member slot plus a dense warm-up train, so join waves and
//!   data compete for the capped link. Control priority keeps the
//!   joins flowing while data queues and sheds.
//! * **rp-overload** — elephant streams from the member slots converge
//!   on the RP (under PIM, through the register path) across the capped
//!   link, overflowing its transmit queue.
//!
//! Both runs must actually congest (tail drops or a nonzero queue peak —
//! a workload too weak to bite is itself a failure), and every oracle
//! must stay green: bounded queues, no control-plane starvation, and
//! eventual delivery of the post-heal probe train (`congestion-recovery`
//! relabels the delivery oracle when the run congested). Exits nonzero
//! on any violation.
//!
//! The printed counters are part of the deterministic contract:
//! `scripts/check.sh` compares this output byte for byte against a
//! committed golden, so queue drops, ECN marks, and peak depth must not
//! drift.

use netsim::{host_addr, SimTime};
use scenario::{
    check_congestion_recovery, check_delivery, check_structure, topology, FaultEvent,
    FaultSchedule, Protocol, Violation,
};
use std::sync::{Arc, Mutex};
use telemetry::MetricsAggregator;

/// Warm-up packets (absorb the PIM shared-tree → SPT switchover and
/// provide the data load that fights the capped link).
const TRAIN: u64 = 10;
/// Checked probe packets, sent after the heal.
const PROBES: u64 = 20;
/// Probe stream start tick (the cap heals at [`HEAL_AT`]).
const PROBE_START: u64 = 1500;
/// Gap between probe packets.
const PROBE_GAP: u64 = 25;
/// Tick at which the capped link is restored to unlimited.
const HEAL_AT: u64 = 1200;
/// Run horizon: probes end at 1975; generous in-flight margin.
const CHECK_AT: u64 = 3000;
/// The capped link: diamond link 1 is r1-r2, the edge into the RP.
const CAPPED_LINK: usize = 1;

fn usage() -> ! {
    eprintln!("usage: overload_smoke [--seed N]");
    std::process::exit(2);
}

/// One workload: a name, the capacity schedule, and the traffic shape.
struct Workload {
    name: &'static str,
    schedule: FaultSchedule,
    traffic: fn(&mut scenario::ScenarioNet),
}

/// Flash crowd: churn waves under the cap, warm-up data in the thick of
/// it, probes after the heal.
fn flash_crowd_traffic(net: &mut scenario::ScenarioNet) {
    net.flash_crowd(50, 3, 200, 7);
    net.send_at(0, 700, TRAIN, 5);
    net.send_at(0, PROBE_START, PROBES, PROBE_GAP);
}

/// RP overload: members join early, elephant streams from the member
/// slots cross the capped link toward the RP, probes after the heal.
fn rp_overload_traffic(net: &mut scenario::ScenarioNet) {
    net.join_at(1, 20);
    net.join_at(2, 30);
    net.send_at(0, 100, TRAIN, 10);
    net.elephants(&[1, 2], 250, 40, 5);
    net.send_at(0, PROBE_START, PROBES, PROBE_GAP);
}

fn workloads() -> Vec<Workload> {
    let cap = |at: u64| {
        let mut s = FaultSchedule::default();
        s.push(at, FaultEvent::Bandwidth(CAPPED_LINK, 2, 48, 1));
        s.push(HEAL_AT, FaultEvent::Bandwidth(CAPPED_LINK, 0, 0, 1));
        s
    };
    vec![
        Workload {
            name: "flash-crowd",
            schedule: cap(100),
            traffic: flash_crowd_traffic,
        },
        Workload {
            name: "rp-overload",
            schedule: cap(200),
            traffic: rp_overload_traffic,
        },
    ]
}

fn main() {
    let mut seed = 7u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |what: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{what} needs a number");
                usage()
            })
        };
        match a.as_str() {
            "--seed" => seed = num("--seed"),
            _ => usage(),
        }
    }

    let topo = topology("diamond").expect("diamond topology");
    println!("overload_smoke topology={}", topo.name);

    let mut failed = false;
    for w in workloads() {
        for proto in Protocol::ALL {
            let mut net = scenario::build_net(
                &topo.graph,
                proto,
                scenario::Substrate::Oracle,
                wire::Group::test(1),
                topo.rendezvous,
                &topo.host_routers,
                par::mix(seed, 12, proto as u64),
            );
            let host_nodes: Vec<_> = net.hosts.iter().map(|&(n, _)| n).collect();
            w.schedule.install(&mut net.world, &host_nodes, net.group);
            (w.traffic)(&mut net);
            let metrics = Arc::new(Mutex::new(MetricsAggregator::new()));
            net.attach_telemetry(metrics.clone());
            net.world.run_until(SimTime(CHECK_AT));

            let members: Vec<u32> = (1..topo.host_routers.len() as u32).collect();
            let source = host_addr(topo.host_routers[0], 0);
            let expected: Vec<u64> = (TRAIN..TRAIN + PROBES).collect();

            let c = net.world.counters();
            let (drops_data, drops_ctrl, marks, peak) = (
                c.queue_drops_data(),
                c.queue_drops_ctrl(),
                c.ecn_marks(),
                c.peak_queue_bytes(),
            );
            let congested = drops_data > 0 || drops_ctrl > 0 || peak > 0;

            let mut violations: Vec<Violation> = check_structure(&net);
            if congested {
                violations.extend(check_congestion_recovery(&net, &members, source, &expected));
            } else {
                violations.extend(check_delivery(&net, &members, source, &expected));
            }
            if !congested {
                violations.push(Violation {
                    oracle: "overload-bites",
                    node: 0,
                    detail: format!("workload {} never congested the capped link", w.name),
                });
            }

            // Queue-depth distribution over the run's power-of-two peak
            // samples (deterministic, so part of the golden diff).
            let (qd50, qd99) = {
                let mut m = metrics.lock().unwrap();
                m.finish();
                (
                    m.queue_depth.percentile(50.0),
                    m.queue_depth.percentile(99.0),
                )
            };

            if violations.is_empty() {
                println!(
                    "overload_smoke {:<11} {:<5} PASS drops={drops_data}/{drops_ctrl} \
                     ecn={marks} peak={peak} qdepth_p50={qd50} qdepth_p99={qd99}",
                    w.name,
                    proto.name(),
                );
            } else {
                failed = true;
                println!(
                    "overload_smoke {:<11} {:<5} FAIL violations={}",
                    w.name,
                    proto.name(),
                    violations.len()
                );
                for v in violations.iter().take(10) {
                    println!("  {} node {}: {}", v.oracle, v.node, v.detail);
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
