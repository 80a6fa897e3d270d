//! Building a protocol network a fault schedule can run against.
//!
//! The same topology + rendezvous-point assignment + host placement is
//! instantiated for any of the three protocols and any unicast substrate,
//! so the explorer can hold the schedule fixed and vary only the protocol
//! under test.

use cbt::{CbtConfig, CbtEngine, CbtRouter};
use dvmrp::{DvmrpConfig, DvmrpEngine, DvmrpRouter};
use graph::{Graph, NodeId};
use igmp::{HostNode, PopulationNode};
use netsim::{host_addr, router_addr, Duration, IfaceId, NodeIdx, SimTime, Topology, World};
use pim::{Engine, PimConfig, PimRouter};
use telemetry::SharedSink;
use unicast::dv::{DvConfig, DvEngine};
use unicast::ls::{LsConfig, LsEngine};
use unicast::OracleRib;
use wire::{Addr, Group};

/// The multicast protocol under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// PIM sparse mode (the paper's architecture).
    Pim,
    /// DVMRP dense mode (broadcast-and-prune baseline).
    Dvmrp,
    /// Core-based trees (shared-tree baseline).
    Cbt,
}

impl Protocol {
    /// All three protocols, in canonical order.
    pub const ALL: [Protocol; 3] = [Protocol::Pim, Protocol::Dvmrp, Protocol::Cbt];

    /// Stable name used in replay artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Pim => "pim",
            Protocol::Dvmrp => "dvmrp",
            Protocol::Cbt => "cbt",
        }
    }

    /// Parse an artifact name back.
    pub fn from_name(s: &str) -> Option<Protocol> {
        Protocol::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// The unicast substrate the routers run underneath the multicast engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// Static tables from global knowledge (deterministic, zero chatter —
    /// what the explorer uses for byte-identical trace comparison).
    Oracle,
    /// RIP-like distance vector.
    DistanceVector,
    /// OSPF-like link state.
    LinkState,
}

/// One router-router interface, as the oracles see it.
#[derive(Clone, Copy, Debug)]
pub struct IfacePeer {
    /// The interface id on this router.
    pub iface: IfaceId,
    /// The neighbor router's graph node.
    pub neighbor: NodeId,
    /// The neighbor router's address.
    pub neighbor_addr: Addr,
}

/// A built scenario network: world plus the side tables the oracle layer
/// needs to interpret router state.
pub struct ScenarioNet {
    /// The simulation world.
    pub world: World,
    /// `(world node, address)` of host slot `k`, in `host_routers` order.
    pub hosts: Vec<(NodeIdx, Addr)>,
    /// Which protocol the routers run.
    pub protocol: Protocol,
    /// The group all membership and data traffic targets.
    pub group: Group,
    /// Number of routers (world nodes `0..router_count` are routers).
    pub router_count: usize,
    /// The RP (PIM) / core (CBT) router. DVMRP has no rendezvous point.
    pub rendezvous: NodeId,
    /// The router each host slot sits behind.
    pub host_routers: Vec<NodeId>,
    /// Router-router interface map per router, indexed by graph node.
    pub peers: Vec<Vec<IfacePeer>>,
    /// Aggregate member population behind each host slot, in
    /// `host_routers` order. `1` = an explicit [`HostNode`] (the classic
    /// scenarios); `> 1` = a [`PopulationNode`] holding that many
    /// members behind one LAN.
    pub populations: Vec<u64>,
}

/// Build a network of `protocol` routers over `g` with a host behind each
/// router in `host_routers`, the rendezvous point (RP or core) at
/// `rendezvous`, and the chosen unicast substrate.
pub fn build_net(
    g: &Graph,
    protocol: Protocol,
    substrate: Substrate,
    group: Group,
    rendezvous: NodeId,
    host_routers: &[NodeId],
    seed: u64,
) -> ScenarioNet {
    let ones = vec![1; host_routers.len()];
    build_net_aggregate(
        g,
        protocol,
        substrate,
        group,
        rendezvous,
        host_routers,
        &ones,
        seed,
    )
}

/// [`build_net`] with an aggregate member population per host slot:
/// slot `k` gets a [`PopulationNode`] holding `populations[k]` members
/// when that count exceeds one, and the classic explicit [`HostNode`]
/// otherwise — so a million-member scenario still attaches one world
/// node per LAN.
#[allow(clippy::too_many_arguments)]
pub fn build_net_aggregate(
    g: &Graph,
    protocol: Protocol,
    substrate: Substrate,
    group: Group,
    rendezvous: NodeId,
    host_routers: &[NodeId],
    populations: &[u64],
    seed: u64,
) -> ScenarioNet {
    assert_eq!(
        populations.len(),
        host_routers.len(),
        "one population count per host slot"
    );
    let topo = Topology::from_graph(g);
    let rdv_addr = router_addr(rendezvous);

    let mut oracle = OracleRib::for_all(g, &topo);
    for &n in host_routers {
        let h = host_addr(n, 0);
        for (i, rib) in oracle.iter_mut().enumerate() {
            if i != n.index() {
                rib.alias_host(h, router_addr(n));
            }
        }
    }
    let mut oracle_iter = oracle.into_iter();

    let (mut world, _links) = topo.build_world(g, seed, |plan| {
        let unicast: Box<dyn unicast::Engine> = match substrate {
            Substrate::Oracle => Box::new(oracle_iter.next().expect("rib per plan")),
            Substrate::DistanceVector => {
                let _ = oracle_iter.next();
                Box::new(DvEngine::new(plan, DvConfig::default()))
            }
            Substrate::LinkState => {
                let _ = oracle_iter.next();
                Box::new(LsEngine::new(plan, LsConfig::default()))
            }
        };
        match protocol {
            Protocol::Pim => {
                let mut r = PimRouter::new(
                    Engine::new(plan.addr, plan.ifaces.len(), PimConfig::default()),
                    unicast,
                );
                r.engine_mut().set_rp_mapping(group, vec![rdv_addr]);
                Box::new(r)
            }
            Protocol::Dvmrp => Box::new(DvmrpRouter::new(
                DvmrpEngine::new(plan.addr, plan.ifaces.len(), DvmrpConfig::default()),
                unicast,
            )),
            Protocol::Cbt => {
                let mut e = CbtEngine::new(plan.addr, CbtConfig::default());
                e.set_core(group, rdv_addr);
                Box::new(CbtRouter::new(e, unicast))
            }
        }
    });

    let mut hosts = Vec::new();
    for (k, &n) in host_routers.iter().enumerate() {
        let ha = host_addr(n, 0);
        let hi = if populations[k] > 1 {
            world.add_node(Box::new(PopulationNode::new(ha)))
        } else {
            world.add_node(Box::new(HostNode::new(ha)))
        };
        let (_l, ifs) = world.add_lan(&[NodeIdx(n.index()), hi], Duration(1));
        let r = NodeIdx(n.index());
        match protocol {
            Protocol::Pim => world
                .node_mut::<PimRouter>(r)
                .attach_host_lan(ifs[0], &[ha]),
            Protocol::Dvmrp => world
                .node_mut::<DvmrpRouter>(r)
                .attach_host_lan(ifs[0], &[ha]),
            Protocol::Cbt => world
                .node_mut::<CbtRouter>(r)
                .attach_host_lan(ifs[0], &[ha]),
        }
        hosts.push((hi, ha));
    }

    let peers = topo
        .plans()
        .iter()
        .map(|p| {
            p.ifaces
                .iter()
                .map(|i| IfacePeer {
                    iface: i.iface,
                    neighbor: i.neighbor,
                    neighbor_addr: i.neighbor_addr,
                })
                .collect()
        })
        .collect();

    ScenarioNet {
        world,
        hosts,
        protocol,
        group,
        router_count: g.node_count(),
        rendezvous,
        host_routers: host_routers.to_vec(),
        peers,
        populations: populations.to_vec(),
    }
}

impl ScenarioNet {
    /// Schedule host slot `k` to stream `count` data packets starting at
    /// `start`, `gap` ticks apart. Returns nothing; sequence numbers are
    /// consecutive from the host's own counter.
    pub fn send_at(&mut self, slot: usize, start: u64, count: u64, gap: u64) {
        let (host, _) = self.hosts[slot];
        let group = self.group;
        let aggregate = self.populations[slot] > 1;
        for k in 0..count {
            self.world.at(SimTime(start + k * gap), move |w| {
                w.call_node(host, |n, ctx| {
                    if aggregate {
                        n.as_any_mut()
                            .downcast_mut::<PopulationNode>()
                            .expect("host slot is a PopulationNode")
                            .send_data(ctx, group);
                    } else {
                        n.as_any_mut()
                            .downcast_mut::<HostNode>()
                            .expect("host slot is a HostNode")
                            .send_data(ctx, group);
                    }
                });
            });
        }
    }

    /// Schedule host slot `k`'s members to join at `at`: the slot's whole
    /// population for an aggregate slot, the single host otherwise.
    pub fn join_at(&mut self, slot: usize, at: u64) {
        let (host, _) = self.hosts[slot];
        let group = self.group;
        let population = self.populations[slot];
        self.world.at(SimTime(at), move |w| {
            w.call_node(host, |n, ctx| {
                if population > 1 {
                    n.as_any_mut()
                        .downcast_mut::<PopulationNode>()
                        .expect("host slot is a PopulationNode")
                        .join_members(ctx, group, population);
                } else {
                    n.as_any_mut()
                        .downcast_mut::<HostNode>()
                        .expect("host slot is a HostNode")
                        .join(ctx, group);
                }
            });
        });
    }

    /// Schedule host slot `k`'s entire membership to leave at `at`.
    pub fn leave_at(&mut self, slot: usize, at: u64) {
        let (host, _) = self.hosts[slot];
        let group = self.group;
        let population = self.populations[slot];
        self.world.at(SimTime(at), move |w| {
            w.call_node(host, |n, _ctx| {
                if population > 1 {
                    n.as_any_mut()
                        .downcast_mut::<PopulationNode>()
                        .expect("host slot is a PopulationNode")
                        .leave_members(group, population);
                } else {
                    n.as_any_mut()
                        .downcast_mut::<HostNode>()
                        .expect("host slot is a HostNode")
                        .leave(group);
                }
            });
        });
    }

    /// The **flash-crowd** workload: `cycles` rounds of synchronized
    /// join/leave churn across every member slot (1..), each round
    /// `period` ticks long with joins staggered `stagger` ticks apart
    /// and the matching leaves half a period later, followed by one
    /// final join wave that stays. The near-simultaneous join waves are
    /// the control-plane overload the congestion oracles watch: every
    /// wave converges on the RP/core as a burst of joins (PIM/CBT) or
    /// grafts (DVMRP). Returns the time of the last scheduled join so
    /// callers can place probe traffic after the crowd has settled.
    pub fn flash_crowd(&mut self, start: u64, cycles: u64, period: u64, stagger: u64) -> u64 {
        let slots = self.hosts.len();
        for c in 0..cycles {
            let base = start + c * period;
            for k in 1..slots {
                let jt = base + (k as u64 - 1) * stagger;
                self.join_at(k, jt);
                self.leave_at(k, jt + period / 2);
            }
        }
        let base = start + cycles * period;
        let mut last = base;
        for k in 1..slots {
            let jt = base + (k as u64 - 1) * stagger;
            self.join_at(k, jt);
            last = last.max(jt);
        }
        last
    }

    /// The **elephant-senders** workload: every slot in `slots` streams
    /// `count` data packets `gap` ticks apart from `start` (staggered by
    /// one tick per sender so the streams interleave deterministically).
    /// Pointed at non-member slots under PIM, every stream's packets
    /// enter the register path and converge on the RP — the data-plane
    /// overload that makes a capped RP-side link queue and shed load.
    pub fn elephants(&mut self, slots: &[usize], start: u64, count: u64, gap: u64) {
        for (i, &s) in slots.iter().enumerate() {
            self.send_at(s, start + i as u64, count, gap);
        }
    }

    /// The sequence numbers host slot `k` received from `source`.
    pub fn seqs(&self, slot: usize, source: Addr) -> Vec<u64> {
        let (host, _) = self.hosts[slot];
        if self.populations[slot] > 1 {
            self.world
                .node::<PopulationNode>(host)
                .seqs_from(source, self.group)
        } else {
            self.world
                .node::<HostNode>(host)
                .seqs_from(source, self.group)
        }
    }

    /// Attach one structured-event sink to the whole network: the world's
    /// own telemetry (timers, injected fault markers) plus a per-node
    /// [`telemetry::Telem`] handle keyed by graph node index, wired by the
    /// world at `start()`; the stream arrives in canonical dispatch order.
    /// Telemetry only observes — the packet trace is identical with or
    /// without a sink.
    pub fn attach_telemetry(&mut self, sink: SharedSink) {
        self.world.set_telemetry(sink);
    }

    /// Router `node`'s `show mroute`-style state snapshot at `now`
    /// (see [`telemetry::StateDump`]).
    pub fn state_dump(&self, node: usize, now: SimTime) -> String {
        let idx = NodeIdx(node);
        match self.protocol {
            Protocol::Pim => self.world.node::<PimRouter>(idx).state_dump(now),
            Protocol::Dvmrp => self.world.node::<DvmrpRouter>(idx).state_dump(now),
            Protocol::Cbt => self.world.node::<CbtRouter>(idx).state_dump(now),
        }
    }
}
