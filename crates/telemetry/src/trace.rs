//! Causal tracing: folding the provenance-linked event stream into a
//! queryable causal DAG.
//!
//! The paper's hardest claims (soft-state recovery after router loss,
//! RP failover, SPT switchover) are claims about *chains* of cause and
//! effect. The plain event stream records what happened; this module
//! records *why*: every dispatch the simulator runs arrives here as a
//! [`Sink::link`] edge (`dispatch` ← `the dispatch that created the
//! event it handled`), and every emitted event arrives via
//! [`Sink::event_caused`] tagged with the dispatch it was emitted from.
//!
//! Three queries come out of the DAG:
//!
//! * [`CausalIndex::backward_slice`] — the minimal ancestry chain
//!   explaining one dispatch (each dispatch has exactly one cause, so
//!   the slice is a chain, not a cone) — `trace why` renders this;
//! * [`CausalIndex::forward_slice`] — the blast radius of a dispatch,
//!   e.g. every consequence of one injected fault;
//! * [`CausalIndex::critical_path`] — the hop/timer chain that carried
//!   a member's first data delivery, with per-hop latency attribution.
//!
//! Everything here is keyed by the deterministic [`EventId`], so every
//! rendered slice is byte-identical from run to run — a property CI
//! asserts against committed goldens on the regression corpus.

use std::collections::BTreeMap;

use crate::{Event, EventId, Provenance, Sink, Ticks, FNV_OFFSET};

/// One event emitted during a dispatch, as stored in the index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Node that emitted the event.
    pub node: u32,
    /// Sim time of emission.
    pub at: Ticks,
    /// Stable kind tag ([`Event::kind`]).
    pub kind: &'static str,
    /// Group address bits, for membership/delivery events.
    pub group: Option<u32>,
    /// Stable single-line rendering ([`Event::render`]).
    pub line: String,
}

/// One dispatch in the causal DAG: its single cause and the events it
/// emitted (possibly none — data-plane forwards are silent).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Dispatch {
    /// The dispatch that created the event this one handled; `None`
    /// for roots (`on_start`, scripted faults).
    pub cause: Option<EventId>,
    /// Events emitted while handling, in emission order.
    pub records: Vec<Record>,
}

/// A [`Sink`] folding the provenance-linked event stream into a causal
/// DAG over dispatches. See the module docs for the three queries.
///
/// Like every sink, the index observes and never participates: it is
/// fed from the same deterministic stream the JSONL sink is, so its
/// contents — and every rendered slice — are reproducible.
#[derive(Clone, Debug, Default)]
pub struct CausalIndex {
    dispatches: BTreeMap<EventId, Dispatch>,
    children: BTreeMap<EventId, Vec<EventId>>,
}

impl CausalIndex {
    /// An empty index.
    pub fn new() -> CausalIndex {
        CausalIndex::default()
    }

    /// Number of dispatches observed.
    pub fn len(&self) -> usize {
        self.dispatches.len()
    }

    /// Whether no dispatch has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.dispatches.is_empty()
    }

    /// The dispatch record for `id`, if observed.
    pub fn dispatch(&self, id: EventId) -> Option<&Dispatch> {
        self.dispatches.get(&id)
    }

    /// Direct consequences of `id`, in canonical order.
    pub fn children(&self, id: EventId) -> &[EventId] {
        self.children.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    // -- anchors ------------------------------------------------------

    /// The last dispatch (canonical order) that emitted an entry-flag
    /// transition (`entry_created` / `entry_modified` / `entry_expired`),
    /// optionally restricted to one node. The explorer anchors oracle
    /// post-mortems here: the final state transition is the event the
    /// violated invariant is *about*.
    pub fn last_flag_transition(&self, node: Option<u32>) -> Option<EventId> {
        let mut last = None;
        for (id, d) in &self.dispatches {
            if d.records
                .iter()
                .any(|r| r.kind.starts_with("entry_") && node.map(|n| r.node == n).unwrap_or(true))
            {
                last = Some(*id);
            }
        }
        last
    }

    /// The last dispatch that emitted any event from `node`.
    pub fn last_event_on(&self, node: u32) -> Option<EventId> {
        let mut last = None;
        for (id, d) in &self.dispatches {
            if d.records.iter().any(|r| r.node == node) {
                last = Some(*id);
            }
        }
        last
    }

    /// Root dispatches (no cause) that emitted a `fault` mark — the
    /// scripted fault injections, in canonical order. Forward-slicing
    /// one of these yields the fault's blast radius.
    pub fn fault_roots(&self) -> Vec<EventId> {
        self.dispatches
            .iter()
            .filter(|(_, d)| d.cause.is_none() && d.records.iter().any(|r| r.kind == "fault"))
            .map(|(id, _)| *id)
            .collect()
    }

    // -- slicing ------------------------------------------------------

    /// The ancestry chain of `id`, root first. Each dispatch has
    /// exactly one cause, so this is the *minimal* explanation: no
    /// unrelated concurrent events appear. Empty if `id` was never
    /// observed.
    pub fn backward_chain(&self, id: EventId) -> Vec<EventId> {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            if !self.dispatches.contains_key(&c) || chain.len() > self.dispatches.len() {
                break;
            }
            chain.push(c);
            cur = self.dispatches[&c].cause;
        }
        chain.reverse();
        chain
    }

    /// The rendered backward slice of `id`, root first: one header per
    /// hop (`#depth [id] who`) followed by the events that hop emitted,
    /// indented. Byte-stable: pinned by the `trace why` goldens.
    pub fn backward_slice(&self, id: EventId) -> Vec<String> {
        let chain = self.backward_chain(id);
        let mut out = Vec::new();
        for (i, hop) in chain.iter().enumerate() {
            out.extend(self.render_hop(i, *hop, ""));
        }
        out
    }

    /// Every dispatch reachable from `id` (including `id`), in BFS
    /// order — the blast radius of a fault injection.
    pub fn forward_slice(&self, id: EventId) -> Vec<EventId> {
        if !self.dispatches.contains_key(&id) {
            return Vec::new();
        }
        let mut out = vec![id];
        let mut i = 0;
        while i < out.len() {
            let cur = out[i];
            i += 1;
            out.extend(self.children(cur).iter().copied());
        }
        out
    }

    /// The attributed path that carried `member`'s first data delivery
    /// for `group` (group address bits): the backward slice of the
    /// delivering dispatch, annotated with per-hop sim-time deltas and
    /// the dominant hop — the MetricsAggregator's join-latency
    /// histogram, turned into a path. Empty when the member never
    /// joined or never received data.
    pub fn critical_path(&self, group: u32, member: u32) -> Vec<String> {
        let mut join_at = None;
        let mut delivery = None;
        'outer: for (id, d) in &self.dispatches {
            for r in &d.records {
                if r.node != member || r.group != Some(group) {
                    continue;
                }
                if r.kind == "member_joined" && join_at.is_none() {
                    join_at = Some(r.at);
                }
                if r.kind == "data_delivered" {
                    if let Some(j) = join_at {
                        delivery = Some((*id, r.at, j));
                        break 'outer;
                    }
                }
            }
        }
        let Some((id, at, join)) = delivery else {
            return Vec::new();
        };
        let chain = self.backward_chain(id);
        let mut out = vec![format!(
            "join at t{join}, first delivery at t{at} (latency {})",
            at - join
        )];
        // Per-hop latency: the sim-time this hop waited on its cause
        // (propagation delay or timer sleep). The dominant hop is where
        // the latency budget went.
        let deltas: Vec<Ticks> = chain
            .iter()
            .enumerate()
            .map(|(i, hop)| {
                if i == 0 {
                    0
                } else {
                    hop.time - chain[i - 1].time
                }
            })
            .collect();
        let dominant = deltas
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        for (i, hop) in chain.iter().enumerate() {
            let mark = if i == dominant && deltas[i] > 0 {
                "  <- dominant"
            } else {
                ""
            };
            out.extend(self.render_hop(i, *hop, &format!(" (+{}){mark}", deltas[i])));
        }
        out
    }

    fn render_hop(&self, depth: usize, id: EventId, suffix: &str) -> Vec<String> {
        let who = match id.epoch {
            0 => format!("n{} on-start", id.origin.saturating_sub(1)),
            1 => format!("script step {}", id.seq),
            _ => format!("n{}", id.origin.saturating_sub(1)),
        };
        let mut out = vec![format!("#{depth} [{}] {who}{suffix}", id.render())];
        match self.dispatches.get(&id) {
            Some(d) if !d.records.is_empty() => {
                for r in &d.records {
                    out.push(format!("    t{} r{} {}", r.at, r.node, r.line));
                }
            }
            _ => out.push("    (silent)".into()),
        }
        out
    }

    // -- integrity ----------------------------------------------------

    /// Check the DAG's structural invariants: every cause was itself
    /// observed as a dispatch, and every cause strictly precedes its
    /// child in canonical-key order (which also proves acyclicity —
    /// `<` is well-founded). Returns the first violation found.
    pub fn check(&self) -> Result<(), String> {
        for (id, d) in &self.dispatches {
            if let Some(c) = d.cause {
                if !self.dispatches.contains_key(&c) {
                    return Err(format!(
                        "dispatch {} has unobserved cause {}",
                        id.render(),
                        c.render()
                    ));
                }
                if c >= *id {
                    return Err(format!(
                        "cause {} does not precede child {}",
                        c.render(),
                        id.render()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Stable FNV-1a digest over the full canonical dump — the
    /// causal-index fingerprint `trace why` prints.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for line in self.dump() {
            h = crate::fnv1a(line.as_bytes(), h);
            h = crate::fnv1a(b"\n", h);
        }
        h
    }

    /// Canonical text dump: one line per dispatch, in canonical order,
    /// with its cause and emitted-event count.
    pub fn dump(&self) -> Vec<String> {
        self.dispatches
            .iter()
            .map(|(id, d)| {
                format!(
                    "{} cause={} records={}",
                    id.render(),
                    d.cause.map(|c| c.render()).unwrap_or_else(|| "-".into()),
                    d.records.len()
                )
            })
            .collect()
    }
}

impl Sink for CausalIndex {
    /// Provenance-blind delivery carries no dispatch identity; the
    /// index only learns from [`Sink::event_caused`] and [`Sink::link`].
    fn event(&mut self, _node: u32, _at: Ticks, _ev: &Event) {}

    fn event_caused(&mut self, node: u32, at: Ticks, ev: &Event, prov: Provenance) {
        let group = match ev {
            Event::DataDelivered { group, .. }
            | Event::LocalMemberJoined { group }
            | Event::LocalMemberLeft { group } => Some(group.addr().0),
            _ => None,
        };
        self.dispatches
            .entry(prov.id)
            .or_insert_with(|| Dispatch {
                cause: prov.cause,
                records: Vec::new(),
            })
            .records
            .push(Record {
                node,
                at,
                kind: ev.kind(),
                group,
                line: ev.render(),
            });
    }

    fn link(&mut self, id: EventId, cause: Option<EventId>) {
        if self.dispatches.contains_key(&id) {
            return;
        }
        self.dispatches.insert(
            id,
            Dispatch {
                cause,
                records: Vec::new(),
            },
        );
        if let Some(c) = cause {
            self.children.entry(c).or_default().push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{Addr, Group};

    fn id(time: Ticks, epoch: u8, origin: u32, seq: u64) -> EventId {
        EventId {
            time,
            epoch,
            origin,
            seq,
        }
    }

    /// start(n0) -> deliver(n1) -> deliver(n2), plus a scripted fault
    /// root with one child.
    fn small_dag() -> CausalIndex {
        let g = Group::test(7);
        let mut ix = CausalIndex::new();
        let root = id(0, 0, 1, 0);
        let hop1 = id(5, 2, 2, 0);
        let hop2 = id(9, 2, 3, 0);
        let fault = id(20, 1, 0, 3);
        let after = id(25, 2, 2, 4);
        ix.link(root, None);
        ix.link(hop1, Some(root));
        ix.link(hop2, Some(hop1));
        ix.link(fault, None);
        ix.link(after, Some(fault));
        ix.event_caused(
            1,
            5,
            &Event::LocalMemberJoined { group: g },
            Provenance {
                id: hop1,
                cause: Some(root),
            },
        );
        ix.event_caused(
            1,
            9,
            &Event::DataDelivered {
                group: g,
                source: Addr::new(10, 0, 0, 1),
            },
            Provenance {
                id: hop2,
                cause: Some(hop1),
            },
        );
        ix.event_caused(
            0,
            20,
            &Event::Fault {
                desc: "crash r2".into(),
            },
            Provenance {
                id: fault,
                cause: None,
            },
        );
        ix
    }

    #[test]
    fn backward_slice_walks_to_root() {
        let ix = small_dag();
        let slice = ix.backward_slice(id(9, 2, 3, 0));
        assert_eq!(
            slice,
            vec![
                "#0 [t0/e0/o1#0] n0 on-start",
                "    (silent)",
                "#1 [t5/e2/o2#0] n1",
                "    t5 r1 member-joined group=239.1.0.7",
                "#2 [t9/e2/o3#0] n2",
                "    t9 r1 data-delivered group=239.1.0.7 source=10.0.0.1",
            ]
        );
        assert!(ix.backward_slice(id(99, 2, 9, 9)).is_empty());
    }

    #[test]
    fn forward_slice_is_the_blast_radius() {
        let ix = small_dag();
        let fwd = ix.forward_slice(id(0, 0, 1, 0));
        assert_eq!(fwd, vec![id(0, 0, 1, 0), id(5, 2, 2, 0), id(9, 2, 3, 0)]);
        let roots = ix.fault_roots();
        assert_eq!(roots, vec![id(20, 1, 0, 3)]);
        assert_eq!(ix.forward_slice(roots[0]).len(), 2);
    }

    #[test]
    fn critical_path_attributes_the_dominant_hop() {
        let ix = small_dag();
        // Delivery and join are both on node 1 for group 7.
        let path = ix.critical_path(Group::test(7).addr().0, 1);
        assert_eq!(path[0], "join at t5, first delivery at t9 (latency 4)");
        assert!(path.iter().any(|l| l.contains("<- dominant")), "{path:?}");
        assert!(ix.critical_path(1234, 0).is_empty());
    }

    #[test]
    fn invariants_hold_and_fingerprint_is_stable() {
        let ix = small_dag();
        ix.check().expect("small DAG is well-formed");
        assert_eq!(ix.fingerprint(), small_dag().fingerprint());
        assert_eq!(ix.len(), 5);

        let mut bad = CausalIndex::new();
        bad.link(id(5, 2, 1, 0), Some(id(9, 2, 1, 1)));
        assert!(bad.check().is_err(), "cause after child must be rejected");
        let mut orphan = CausalIndex::new();
        orphan.link(id(5, 2, 1, 0), None);
        let d = orphan.dispatches.get_mut(&id(5, 2, 1, 0)).unwrap();
        d.cause = Some(id(1, 2, 9, 9));
        assert!(orphan.check().is_err(), "unobserved cause must be rejected");
    }

    #[test]
    fn anchors_find_flag_transitions() {
        let g = Group::test(7);
        let mut ix = small_dag();
        let hop3 = id(30, 2, 4, 0);
        ix.link(hop3, Some(id(9, 2, 3, 0)));
        ix.event_caused(
            3,
            30,
            &Event::EntryCreated {
                group: g,
                key: crate::EntryKey::Star,
                flags: crate::flags::WC,
            },
            Provenance {
                id: hop3,
                cause: Some(id(9, 2, 3, 0)),
            },
        );
        assert_eq!(ix.last_flag_transition(None), Some(hop3));
        assert_eq!(ix.last_flag_transition(Some(3)), Some(hop3));
        assert_eq!(ix.last_flag_transition(Some(9)), None);
        assert_eq!(ix.last_event_on(1), Some(id(9, 2, 3, 0)));
    }
}
