//! Instantiating a simulation world from a [`graph::Graph`] topology.
//!
//! Router constructors need to know their interfaces (neighbor addresses,
//! delays, metrics) *before* the world wires the links up, so this module
//! first computes a deterministic [`Topology`] plan from the graph — edge
//! `k` of the graph becomes link `k` of the world, and a node's interfaces
//! are numbered in the order its edges appear in the graph — and then
//! builds the world from it.

use crate::time::Duration;
use crate::world::{IfaceId, LinkId, Node, NodeIdx, World};
use graph::{EdgeId, Graph, NodeId};
use wire::Addr;

/// The canonical unicast address of the router at graph node `n`:
/// `10.hi.lo.1`.
pub fn router_addr(n: NodeId) -> Addr {
    let i = n.0;
    assert!(i < 0x10000, "node id out of the 10.x.y.1 plan");
    Addr::new(10, (i >> 8) as u8, (i & 0xFF) as u8, 1)
}

/// The canonical address of host number `k` attached to router `n`:
/// `10.hi.lo.(10+k)`.
pub fn host_addr(n: NodeId, k: u8) -> Addr {
    let i = n.0;
    assert!(i < 0x10000, "node id out of the 10.x.y plan");
    assert!(k < 245, "host index out of range");
    Addr::new(10, (i >> 8) as u8, (i & 0xFF) as u8, 10 + k)
}

/// Reverse of [`router_addr`]: the graph node a router address denotes.
pub fn node_of_addr(addr: Addr) -> Option<NodeId> {
    let [ten, hi, lo, last] = addr.to_bytes();
    (ten == 10 && last == 1).then_some(NodeId(((hi as u32) << 8) | lo as u32))
}

/// One planned router interface.
#[derive(Clone, Copy, Debug)]
pub struct IfacePlan {
    /// The interface id the world will assign.
    pub iface: IfaceId,
    /// The graph edge this interface attaches to.
    pub edge: EdgeId,
    /// The neighbor router on the other end.
    pub neighbor: NodeId,
    /// The neighbor's unicast address.
    pub neighbor_addr: Addr,
    /// One-way propagation delay of the link.
    pub delay: Duration,
    /// Routing metric of the link (equal to its delay, so unicast shortest
    /// paths match the graph's shortest paths).
    pub metric: u32,
}

/// The planned identity and interfaces of one router.
#[derive(Clone, Debug)]
pub struct NodePlan {
    /// The graph node.
    pub node: NodeId,
    /// The router's unicast address.
    pub addr: Addr,
    /// Interfaces, in world assignment order.
    pub ifaces: Vec<IfacePlan>,
}

/// A deterministic plan mapping a graph onto a simulation world.
#[derive(Clone, Debug)]
pub struct Topology {
    plans: Vec<NodePlan>,
}

impl Topology {
    /// Plan a world for `g`: node `i` of the graph becomes world node `i`,
    /// edge `k` becomes link `k`, and interface numbering follows edge
    /// order.
    pub fn from_graph(g: &Graph) -> Topology {
        let mut plans: Vec<NodePlan> = g
            .nodes()
            .map(|n| NodePlan {
                node: n,
                addr: router_addr(n),
                ifaces: Vec::new(),
            })
            .collect();
        for (eid, edge) in g.edges() {
            for (me, other) in [(edge.a, edge.b), (edge.b, edge.a)] {
                let plan = &mut plans[me.index()];
                plan.ifaces.push(IfacePlan {
                    iface: IfaceId(plan.ifaces.len() as u32),
                    edge: eid,
                    neighbor: other,
                    neighbor_addr: router_addr(other),
                    delay: Duration(edge.weight),
                    metric: edge.weight as u32,
                });
            }
        }
        Topology { plans }
    }

    /// The per-router plans, indexed by graph node.
    pub fn plans(&self) -> &[NodePlan] {
        &self.plans
    }

    /// The plan for one router.
    pub fn plan(&self, n: NodeId) -> &NodePlan {
        &self.plans[n.index()]
    }

    /// Build a world: `make` constructs each router from its plan. Returns
    /// the world and the link ids in graph-edge order.
    ///
    /// World node indices equal graph node indices.
    pub fn build_world(
        &self,
        g: &Graph,
        seed: u64,
        mut make: impl FnMut(&NodePlan) -> Box<dyn Node>,
    ) -> (World, Vec<LinkId>) {
        let mut w = World::new(seed);
        for plan in &self.plans {
            let idx = w.add_node(make(plan));
            debug_assert_eq!(idx.0, plan.node.index());
        }
        let mut links = Vec::with_capacity(g.edge_count());
        for (_eid, edge) in g.edges() {
            let (l, ia, ib) = w.add_p2p(
                NodeIdx(edge.a.index()),
                NodeIdx(edge.b.index()),
                Duration(edge.weight),
            );
            // The plan promised interface numbers in edge order; verify.
            debug_assert_eq!(
                ia,
                self.plans[edge.a.index()]
                    .ifaces
                    .iter()
                    .find(|p| p.edge.index() == links.len())
                    .expect("planned iface")
                    .iface
            );
            debug_assert_eq!(
                ib,
                self.plans[edge.b.index()]
                    .ifaces
                    .iter()
                    .find(|p| p.edge.index() == links.len())
                    .expect("planned iface")
                    .iface
            );
            links.push(l);
        }
        (w, links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Ctx;
    use std::any::Any;

    struct Sink;
    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _p: &[u8]) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn triangle() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 2);
        g.add_edge(NodeId(1), NodeId(2), 3);
        g.add_edge(NodeId(0), NodeId(2), 4);
        g
    }

    #[test]
    fn addresses() {
        assert_eq!(router_addr(NodeId(0)).to_string(), "10.0.0.1");
        assert_eq!(router_addr(NodeId(513)).to_string(), "10.2.1.1");
        assert_eq!(host_addr(NodeId(3), 2).to_string(), "10.0.3.12");
        assert_eq!(node_of_addr(router_addr(NodeId(513))), Some(NodeId(513)));
        assert_eq!(node_of_addr(host_addr(NodeId(3), 0)), None);
        assert_eq!(node_of_addr(Addr::new(11, 0, 0, 1)), None);
    }

    #[test]
    fn plan_iface_numbering_follows_edge_order() {
        let g = triangle();
        let t = Topology::from_graph(&g);
        let p0 = t.plan(NodeId(0));
        assert_eq!(p0.ifaces.len(), 2);
        assert_eq!(p0.ifaces[0].neighbor, NodeId(1)); // edge 0
        assert_eq!(p0.ifaces[0].iface, IfaceId(0));
        assert_eq!(p0.ifaces[1].neighbor, NodeId(2)); // edge 2
        assert_eq!(p0.ifaces[1].iface, IfaceId(1));
        assert_eq!(p0.ifaces[1].delay, Duration(4));
        let p1 = t.plan(NodeId(1));
        assert_eq!(p1.ifaces[0].neighbor, NodeId(0));
        assert_eq!(p1.ifaces[1].neighbor, NodeId(2));
    }

    #[test]
    fn world_matches_plan() {
        let g = triangle();
        let t = Topology::from_graph(&g);
        let (w, links) = t.build_world(&g, 0, |_| Box::new(Sink));
        assert_eq!(w.node_count(), 3);
        assert_eq!(links.len(), 3);
        assert_eq!(w.link(links[1]).delay, Duration(3));
    }
}
