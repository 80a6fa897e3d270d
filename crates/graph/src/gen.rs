//! Random-topology generators.
//!
//! The Figure-2 study in the paper uses "randomly generated 50-node
//! networks" with controlled average node degree (3 through 8). We follow
//! the standard methodology of that era (Wei & Estrin, USC-CS-93-560):
//!
//! 1. guarantee connectivity with a uniformly random spanning tree, then
//! 2. add random extra edges until the target average degree is reached.
//!
//! A Waxman generator is also provided for geographically flavored
//! topologies used by some examples and the overhead experiments.

use crate::{Graph, NodeId, Weight};
use rand::seq::SliceRandom;
use rand::Rng;

/// Parameters for the degree-targeted random-graph generator.
#[derive(Clone, Copy, Debug)]
pub struct RandomGraphParams {
    /// Number of nodes.
    pub nodes: usize,
    /// Target average node degree (`2m / n`). Must satisfy
    /// `avg_degree >= 2*(n-1)/n` (a spanning tree already has average degree
    /// just below 2) and `avg_degree <= n-1` (simple-graph limit).
    pub avg_degree: f64,
    /// Inclusive range from which link delays are drawn uniformly.
    pub delay_range: (Weight, Weight),
}

impl Default for RandomGraphParams {
    /// The paper's Figure-2 configuration: 50 nodes, degree 4, delays 1..=10.
    fn default() -> Self {
        RandomGraphParams {
            nodes: 50,
            avg_degree: 4.0,
            delay_range: (1, 10),
        }
    }
}

/// Generate a connected random graph with a target average node degree.
///
/// The graph is simple (no parallel edges or self-loops). The generator
/// first builds a uniform random spanning tree (random-permutation
/// attachment), then adds distinct random extra edges until
/// `edge_count == round(avg_degree * n / 2)`.
///
/// # Panics
/// Panics if the parameters are infeasible (fewer than 2 nodes with a
/// positive degree target, target degree above `n-1`, or an empty delay
/// range).
pub fn random_connected(params: &RandomGraphParams, rng: &mut impl Rng) -> Graph {
    let n = params.nodes;
    assert!(n >= 2, "need at least two nodes");
    assert!(
        params.avg_degree <= (n - 1) as f64,
        "average degree {} impossible in a simple {n}-node graph",
        params.avg_degree
    );
    let (lo, hi) = params.delay_range;
    assert!(lo <= hi && lo > 0, "invalid delay range");

    let target_edges = ((params.avg_degree * n as f64) / 2.0).round() as usize;
    assert!(
        target_edges >= n - 1,
        "average degree {} cannot keep a {n}-node graph connected",
        params.avg_degree
    );

    let mut g = Graph::with_nodes(n);
    let delay = |rng: &mut dyn rand::RngCore| rng.gen_range(lo..=hi);

    // Random spanning tree: shuffle nodes, attach each to a random earlier
    // node. This yields a connected tree with a wide variety of shapes.
    let mut order: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    order.shuffle(rng);
    for i in 1..n {
        let parent = order[rng.gen_range(0..i)];
        let w = delay(rng);
        g.add_edge(order[i], parent, w);
    }

    // Extra random edges up to the target, avoiding duplicates.
    let mut guard = 0usize;
    while g.edge_count() < target_edges {
        let a = NodeId(rng.gen_range(0..n as u32));
        let b = NodeId(rng.gen_range(0..n as u32));
        if a != b && !g.has_edge(a, b) {
            let w = delay(rng);
            g.add_edge(a, b, w);
        }
        guard += 1;
        assert!(
            guard < 1000 * target_edges.max(16),
            "edge sampling failed to converge; degree target too dense?"
        );
    }

    debug_assert!(crate::algo::is_connected(&g));
    g
}

/// Parameters for the Waxman topology generator (Waxman, JSAC 1988).
#[derive(Clone, Copy, Debug)]
pub struct WaxmanParams {
    /// Number of nodes, placed uniformly at random in the unit square.
    pub nodes: usize,
    /// Edge-probability scale (larger = more edges). Typical: 0.4.
    pub alpha: f64,
    /// Distance decay (larger = longer edges more likely). Typical: 0.2.
    pub beta: f64,
    /// Link delay per unit of Euclidean distance; delays are
    /// `max(1, round(distance * delay_scale))`.
    pub delay_scale: f64,
}

impl Default for WaxmanParams {
    fn default() -> Self {
        WaxmanParams {
            nodes: 50,
            alpha: 0.4,
            beta: 0.2,
            delay_scale: 20.0,
        }
    }
}

/// Generate a connected Waxman random graph.
///
/// Nodes are placed uniformly in the unit square; an edge between `u` and
/// `v` at Euclidean distance `d` exists with probability
/// `alpha * exp(-d / (beta * L))` where `L = sqrt(2)` is the diameter of the
/// square. Connectivity is then repaired by linking each unreached component
/// to its geometrically nearest reached node.
pub fn waxman(params: &WaxmanParams, rng: &mut impl Rng) -> Graph {
    let n = params.nodes;
    assert!(n >= 2, "need at least two nodes");
    let l = std::f64::consts::SQRT_2;

    let pos: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let dist = |a: usize, b: usize| -> f64 {
        let dx = pos[a].0 - pos[b].0;
        let dy = pos[a].1 - pos[b].1;
        (dx * dx + dy * dy).sqrt()
    };
    let to_delay = |d: f64| -> Weight { ((d * params.delay_scale).round() as Weight).max(1) };

    let mut g = Graph::with_nodes(n);
    for a in 0..n {
        for b in (a + 1)..n {
            let d = dist(a, b);
            let p = params.alpha * (-d / (params.beta * l)).exp();
            if rng.gen::<f64>() < p {
                g.add_edge(NodeId(a as u32), NodeId(b as u32), to_delay(d));
            }
        }
    }

    // Repair connectivity: repeatedly attach the nearest unreached node to
    // the component containing node 0.
    loop {
        let hops = crate::algo::bfs_hops(&g, NodeId(0));
        let mut best: Option<(usize, usize, f64)> = None; // (outside, inside, dist)
        for (v, h) in hops.iter().enumerate() {
            if h.is_some() {
                continue;
            }
            for (u, hu) in hops.iter().enumerate() {
                if hu.is_none() {
                    continue;
                }
                let d = dist(v, u);
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((v, u, d));
                }
            }
        }
        match best {
            Some((v, u, d)) => {
                g.add_edge(NodeId(v as u32), NodeId(u as u32), to_delay(d));
            }
            None => break,
        }
    }

    debug_assert!(crate::algo::is_connected(&g));
    g
}

/// The three-domain internetwork of Figure 1 in the paper.
///
/// Three "domains" (A, B, C) of `domain_size` routers each, joined by a
/// small backbone. Returns the graph plus the node ids of one
/// member-attached router in each domain `(a, b, c)` and a backbone router
/// suitable for hosting an RP/core. Intra-domain links are cheap
/// (`delay 1`); inter-domain backbone links are expensive (`delay 10`),
/// mirroring the paper's expensive-WAN-link discussion.
pub fn three_domains(domain_size: usize, rng: &mut impl Rng) -> (Graph, [NodeId; 3], NodeId) {
    assert!(domain_size >= 2);
    let mut g = Graph::with_nodes(domain_size * 3 + 3);
    let backbone = [
        NodeId((domain_size * 3) as u32),
        NodeId((domain_size * 3 + 1) as u32),
        NodeId((domain_size * 3 + 2) as u32),
    ];
    // Backbone triangle.
    g.add_edge(backbone[0], backbone[1], 10);
    g.add_edge(backbone[1], backbone[2], 10);
    g.add_edge(backbone[0], backbone[2], 10);

    let mut members = [NodeId(0); 3];
    for d in 0..3 {
        let base = d * domain_size;
        // Random tree inside the domain plus a couple of extra links.
        for i in 1..domain_size {
            let parent = base + rng.gen_range(0..i);
            g.add_edge(NodeId((base + i) as u32), NodeId(parent as u32), 1);
        }
        if domain_size >= 4 {
            for _ in 0..(domain_size / 3) {
                let a = base + rng.gen_range(0..domain_size);
                let b = base + rng.gen_range(0..domain_size);
                if a != b && !g.has_edge(NodeId(a as u32), NodeId(b as u32)) {
                    g.add_edge(NodeId(a as u32), NodeId(b as u32), 1);
                }
            }
        }
        // Border router of the domain is its node 0; wire it to the backbone.
        g.add_edge(NodeId(base as u32), backbone[d], 10);
        // The member-attached router is the last node of the domain.
        members[d] = NodeId((base + domain_size - 1) as u32);
    }
    (g, members, backbone[0])
}

/// Parameters for the hierarchical (backbone + stub domains) generator.
///
/// This is the wide-area shape the paper argues about: a modest AS-level
/// backbone with many stub domains hung off attachment routers, rather
/// than one flat random graph. Waxman density grows with node count
/// (expected degree `~0.068 * (n-1)` at the default alpha/beta), so flat
/// graphs stop being credible internets well before 1000 routers; the
/// hierarchy keeps degree bounded no matter how many domains are added.
#[derive(Clone, Copy, Debug)]
pub struct HierParams {
    /// The AS-level backbone, generated by [`waxman`] (its `nodes` field
    /// is the backbone router count).
    pub backbone: WaxmanParams,
    /// Number of stub domains hung off the backbone.
    pub domains: usize,
    /// Routers per stub domain (gateway included).
    pub domain_size: usize,
    /// Extra intra-domain edges beyond the random spanning tree.
    pub domain_extra_edges: usize,
    /// Inclusive delay range for gateway-to-backbone links (the expensive
    /// WAN hops; intra-domain links have delay 1).
    pub gateway_delay: (Weight, Weight),
}

impl Default for HierParams {
    /// A small campus-scale default: 10 backbone routers, 8 domains of 5.
    fn default() -> Self {
        HierParams {
            backbone: WaxmanParams {
                nodes: 10,
                ..WaxmanParams::default()
            },
            domains: 8,
            domain_size: 5,
            domain_extra_edges: 1,
            gateway_delay: (5, 15),
        }
    }
}

/// A hierarchical topology plus the structure metadata the simulation
/// layers need: which domain every router belongs to and where each
/// domain attaches to the backbone.
#[derive(Clone, Debug)]
pub struct HierTopology {
    /// The full graph. Nodes `0..backbone` are the backbone; domain `d`
    /// (0-based) occupies the contiguous block starting at
    /// `backbone + d * domain_size`, gateway first.
    pub graph: Graph,
    /// Backbone router count.
    pub backbone: usize,
    /// Stub domain count.
    pub domains: usize,
    /// Routers per stub domain.
    pub domain_size: usize,
    /// Per-node domain id: `0` for backbone routers, `1 + d` for routers
    /// of domain `d`.
    pub domain_of: Vec<u32>,
    /// Per-domain backbone router the gateway link lands on.
    pub attachment: Vec<NodeId>,
}

impl HierTopology {
    /// Node-id range of domain `d` (0-based).
    pub fn domain_nodes(&self, d: usize) -> std::ops::Range<usize> {
        assert!(d < self.domains);
        let base = self.backbone + d * self.domain_size;
        base..base + self.domain_size
    }

    /// Domain `d`'s gateway router (the one with the backbone link).
    pub fn gateway(&self, d: usize) -> NodeId {
        NodeId(self.domain_nodes(d).start as u32)
    }

    /// Domain `d`'s leaf router — the canonical member-attachment point,
    /// farthest-numbered from the gateway.
    pub fn leaf(&self, d: usize) -> NodeId {
        NodeId((self.domain_nodes(d).end - 1) as u32)
    }

    /// Total router count.
    pub fn node_count(&self) -> usize {
        self.backbone + self.domains * self.domain_size
    }
}

/// Generate a hierarchical internetwork: a Waxman AS-level backbone with
/// `domains` stub domains hung off random attachment routers.
///
/// Each domain is a random spanning tree (delay-1 links) over
/// `domain_size` routers plus `domain_extra_edges` random shortcuts, and
/// its gateway (first node of the block) gets one link to a random
/// backbone router with a delay drawn from `gateway_delay`. The result is
/// connected by construction and deterministic per seed.
pub fn hierarchical(params: &HierParams, rng: &mut impl Rng) -> HierTopology {
    assert!(params.backbone.nodes >= 2, "backbone needs two routers");
    assert!(params.domain_size >= 1, "empty domains are pointless");
    let (lo, hi) = params.gateway_delay;
    assert!(lo >= 1 && lo <= hi, "invalid gateway delay range");

    let b = params.backbone.nodes;
    let n = b + params.domains * params.domain_size;
    let mut g = Graph::with_nodes(n);
    // Backbone first: its nodes keep their ids when copied into the big
    // graph, so the Waxman edge list transfers verbatim.
    let bb = waxman(&params.backbone, rng);
    for (_, e) in bb.edges() {
        g.add_edge(e.a, e.b, e.weight);
    }

    let mut domain_of = vec![0u32; n];
    let mut attachment = Vec::with_capacity(params.domains);
    for d in 0..params.domains {
        let base = b + d * params.domain_size;
        domain_of[base..base + params.domain_size].fill(1 + d as u32);
        // Random intra-domain tree rooted at the gateway.
        for i in 1..params.domain_size {
            let parent = base + rng.gen_range(0..i);
            g.add_edge(NodeId((base + i) as u32), NodeId(parent as u32), 1);
        }
        for _ in 0..params.domain_extra_edges {
            if params.domain_size < 3 {
                break;
            }
            let a = base + rng.gen_range(0..params.domain_size);
            let c = base + rng.gen_range(0..params.domain_size);
            if a != c && !g.has_edge(NodeId(a as u32), NodeId(c as u32)) {
                g.add_edge(NodeId(a as u32), NodeId(c as u32), 1);
            }
        }
        // Hang the gateway off a random backbone router.
        let att = NodeId(rng.gen_range(0..b as u32));
        g.add_edge(NodeId(base as u32), att, rng.gen_range(lo..=hi));
        attachment.push(att);
    }

    debug_assert!(crate::algo::is_connected(&g));
    HierTopology {
        graph: g,
        backbone: b,
        domains: params.domains,
        domain_size: params.domain_size,
        domain_of,
        attachment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_connected_meets_degree_target() {
        let mut rng = StdRng::seed_from_u64(7);
        for deg in 3..=8 {
            let params = RandomGraphParams {
                nodes: 50,
                avg_degree: deg as f64,
                delay_range: (1, 10),
            };
            let g = random_connected(&params, &mut rng);
            assert!(is_connected(&g));
            assert_eq!(g.node_count(), 50);
            let expected_edges = (deg * 50 / 2) as usize;
            assert_eq!(g.edge_count(), expected_edges);
            assert!((g.average_degree() - deg as f64).abs() < 0.05);
        }
    }

    #[test]
    fn random_connected_delays_in_range() {
        let mut rng = StdRng::seed_from_u64(11);
        let params = RandomGraphParams::default();
        let g = random_connected(&params, &mut rng);
        for (_, e) in g.edges() {
            assert!(
                (1..=10).contains(&e.weight),
                "delay {} out of range",
                e.weight
            );
        }
    }

    #[test]
    fn random_connected_deterministic_per_seed() {
        let params = RandomGraphParams::default();
        let g1 = random_connected(&params, &mut StdRng::seed_from_u64(42));
        let g2 = random_connected(&params, &mut StdRng::seed_from_u64(42));
        let e1: Vec<_> = g1.edges().map(|(_, e)| *e).collect();
        let e2: Vec<_> = g2.edges().map(|(_, e)| *e).collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn random_connected_simple_graph() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_connected(&RandomGraphParams::default(), &mut rng);
        let mut seen = std::collections::HashSet::new();
        for (_, e) in g.edges() {
            let key = (e.a.min(e.b), e.a.max(e.b));
            assert!(seen.insert(key), "duplicate edge {key:?}");
        }
    }

    #[test]
    fn waxman_connected() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let g = waxman(&WaxmanParams::default(), &mut rng);
            assert!(is_connected(&g));
            assert_eq!(g.node_count(), 50);
            assert!(g.edge_count() >= 49);
        }
    }

    #[test]
    fn waxman_delays_positive() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = waxman(&WaxmanParams::default(), &mut rng);
        for (_, e) in g.edges() {
            assert!(e.weight >= 1);
        }
    }

    #[test]
    fn three_domains_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let (g, members, rp) = three_domains(5, &mut rng);
        assert!(is_connected(&g));
        assert_eq!(g.node_count(), 18);
        // Members are distinct and in distinct domains.
        assert_eq!(members[0], NodeId(4));
        assert_eq!(members[1], NodeId(9));
        assert_eq!(members[2], NodeId(14));
        assert_eq!(rp, NodeId(15));
    }

    #[test]
    fn hierarchical_shape_and_connectivity() {
        let mut rng = StdRng::seed_from_u64(21);
        let params = HierParams {
            backbone: WaxmanParams {
                nodes: 12,
                ..WaxmanParams::default()
            },
            domains: 10,
            domain_size: 7,
            domain_extra_edges: 2,
            gateway_delay: (5, 15),
        };
        let h = hierarchical(&params, &mut rng);
        assert_eq!(h.node_count(), 12 + 70);
        assert_eq!(h.graph.node_count(), h.node_count());
        assert!(is_connected(&h.graph));
        // Domain metadata is consistent with the block layout.
        for d in 0..10 {
            for v in h.domain_nodes(d) {
                assert_eq!(h.domain_of[v], 1 + d as u32);
            }
            assert!(h.attachment[d].index() < 12);
            assert!(h.graph.has_edge(h.gateway(d), h.attachment[d]));
        }
        for v in 0..12 {
            assert_eq!(h.domain_of[v], 0);
        }
    }

    #[test]
    fn hierarchical_deterministic_per_seed() {
        let params = HierParams::default();
        let h1 = hierarchical(&params, &mut StdRng::seed_from_u64(33));
        let h2 = hierarchical(&params, &mut StdRng::seed_from_u64(33));
        let e1: Vec<_> = h1.graph.edges().map(|(_, e)| *e).collect();
        let e2: Vec<_> = h2.graph.edges().map(|(_, e)| *e).collect();
        assert_eq!(e1, e2);
        assert_eq!(h1.domain_of, h2.domain_of);
        assert_eq!(h1.attachment, h2.attachment);
    }

    #[test]
    fn hierarchical_degree_stays_bounded() {
        // The whole point of the hierarchy: average degree must not grow
        // with the domain count (a flat Waxman graph's would).
        let mut rng = StdRng::seed_from_u64(8);
        let small = hierarchical(
            &HierParams {
                domains: 10,
                ..HierParams::default()
            },
            &mut rng,
        );
        let large = hierarchical(
            &HierParams {
                domains: 100,
                ..HierParams::default()
            },
            &mut rng,
        );
        assert!(large.graph.average_degree() <= small.graph.average_degree() + 0.5);
    }

    #[test]
    fn hierarchical_domain_boundaries_are_gateway_links() {
        let mut rng = StdRng::seed_from_u64(13);
        let h = hierarchical(
            &HierParams {
                domains: 12,
                ..HierParams::default()
            },
            &mut rng,
        );
        // Every edge that leaves a domain is a slow gateway link.
        for (_, e) in h.graph.edges() {
            if h.domain_of[e.a.index()] != h.domain_of[e.b.index()] {
                assert!(
                    e.weight >= 5,
                    "domain-crossing edge with delay {}",
                    e.weight
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "average degree")]
    fn infeasible_degree_rejected() {
        let params = RandomGraphParams {
            nodes: 4,
            avg_degree: 5.0,
            delay_range: (1, 10),
        };
        random_connected(&params, &mut StdRng::seed_from_u64(0));
    }
}
