//! Multicast forwarding entries — the router state the paper defines in §3.
//!
//! "The shortest path tree state maintained in routers is roughly the same
//! as the forwarding information that is currently maintained by routers
//! running existing IP multicast protocols ... source (S), multicast address
//! (G), outgoing interface set (oif), incoming interface (iif). We refer to
//! this forwarding information as the multicast forwarding entry for (S,G).
//! ... A (\*,G) entry keeps the same information an (S,G) entry keeps,
//! except that it saves the RP address in place of the source address.
//! There is a wildcard flag indicating that this is a shared tree entry."
//!
//! One [`Entry`] type covers all three shapes the protocol uses:
//!
//! | shape             | `wildcard` | `rp_bit` | iif points toward |
//! |-------------------|-----------|----------|-------------------|
//! | (\*,G) shared     | true      | true     | the RP            |
//! | (S,G) shortest path| false    | false    | the source        |
//! | (S,G) negative cache (on RP tree) | false | true | the RP    |

use netsim::{IfaceId, SimTime};
use std::collections::BTreeMap;
use wire::{Addr, Group};

/// Why an outgoing interface is in the oif list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OifKind {
    /// A downstream PIM router joined on this interface; kept alive by
    /// join refreshes (§3.6).
    Joined,
    /// Copied from the (\*,G) entry when an (S,G) entry was created (§3.3:
    /// "the outgoing interface list is copied from (\*,G)"); its timer is
    /// slaved to the (\*,G) oif (footnote 12).
    CopiedFromStar,
    /// A directly attached subnetwork with local members (IGMP-maintained;
    /// no PIM timer — IGMP expiry removes it).
    LocalMembers,
}

/// One outgoing interface of a forwarding entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Oif {
    /// Why this interface is here.
    pub kind: OifKind,
    /// When the interface lapses unless refreshed ([`SimTime`] max for
    /// local-member oifs, which IGMP manages).
    pub expires_at: SimTime,
}

/// A multicast forwarding entry.
#[derive(Clone, Debug)]
pub struct Entry {
    /// The group.
    pub group: Group,
    /// The source address — or the RP address when `wildcard` is set.
    pub key: Addr,
    /// The WC bit: this is a (\*,G) shared-tree entry.
    pub wildcard: bool,
    /// The RP bit: the iif check for this entry is toward the RP, not the
    /// source, and periodic join/prune for it goes toward the RP
    /// (footnote 10).
    pub rp_bit: bool,
    /// The SPT bit (§3.3): the transition from shared tree to this
    /// source's shortest-path tree has completed (data has arrived over
    /// the SPT interface).
    pub spt_bit: bool,
    /// Incoming interface. `None` at the RP for its own (\*,G) ("the
    /// incoming interface in the RP's (\*,G) entry is set to null"), and
    /// for entries whose source is a directly attached host until the host
    /// interface is learned.
    pub iif: Option<IfaceId>,
    /// The upstream neighbor joins/prunes for this entry are sent to.
    pub upstream: Option<Addr>,
    /// The outgoing interfaces, ordered for deterministic iteration.
    pub oifs: BTreeMap<IfaceId, Oif>,
    /// LAN-pruned interfaces of a negative-cache entry: present in the
    /// parallel (\*,G) oif list but excluded here. Only used when
    /// `rp_bit && !wildcard` (footnote 11).
    pub pruned_oifs: BTreeMap<IfaceId, SimTime>,
    /// (\*,G) only: RP-reachability timer (§3.1/§3.9). `Some(t)` = declare
    /// the RP unreachable at `t`. Tracked when this router has local
    /// members.
    pub rp_timer: Option<SimTime>,
    /// (S,G) SPT entries: we have pruned this source off the shared tree,
    /// so periodic prunes {S, RPbit} toward the RP keep the negative
    /// caches upstream alive (footnotes 10/13).
    pub pruned_from_shared: bool,
    /// Set when the oif list went null: the entry is deleted at this time
    /// ("the entry is deleted after 3 times the refresh period", §3.6).
    pub delete_at: Option<SimTime>,
    /// LAN join suppression (§3.7): skip our periodic upstream join until
    /// this time because we overheard an equivalent join.
    pub suppressed_until: Option<SimTime>,
    /// For source entries at the source's own DR: the data actually
    /// originates on a directly attached subnetwork.
    pub local_source: bool,
    /// For local-source entries: the next time the DR re-registers a data
    /// packet to the RP(s) even though it is forwarding natively (the
    /// periodic register probe; see `PimConfig::register_probe_interval`).
    pub next_register_probe: SimTime,
}

impl Entry {
    /// A new (\*,G) entry (§3.1): iif toward the RP, WC and RP bits set.
    pub fn new_star(group: Group, rp: Addr, iif: Option<IfaceId>, upstream: Option<Addr>) -> Entry {
        Entry {
            group,
            key: rp,
            wildcard: true,
            rp_bit: true,
            spt_bit: false,
            iif,
            upstream,
            oifs: BTreeMap::new(),
            pruned_oifs: BTreeMap::new(),
            rp_timer: None,
            pruned_from_shared: false,
            delete_at: None,
            suppressed_until: None,
            local_source: false,
            next_register_probe: SimTime::ZERO,
        }
    }

    /// A new (S,G) shortest-path-tree entry (§3.3): iif toward the source,
    /// SPT bit cleared until data arrives over it.
    pub fn new_source(
        group: Group,
        source: Addr,
        iif: Option<IfaceId>,
        upstream: Option<Addr>,
    ) -> Entry {
        Entry {
            group,
            key: source,
            wildcard: false,
            rp_bit: false,
            spt_bit: false,
            iif,
            upstream,
            oifs: BTreeMap::new(),
            pruned_oifs: BTreeMap::new(),
            rp_timer: None,
            pruned_from_shared: false,
            delete_at: None,
            suppressed_until: None,
            local_source: false,
            next_register_probe: SimTime::ZERO,
        }
    }

    /// A new (S,G) negative-cache entry on the RP tree (footnote 11): RP
    /// bit set, iif toward the RP.
    pub fn new_negative(
        group: Group,
        source: Addr,
        iif: Option<IfaceId>,
        upstream: Option<Addr>,
    ) -> Entry {
        Entry {
            group,
            key: source,
            wildcard: false,
            rp_bit: true,
            spt_bit: false,
            iif,
            upstream,
            oifs: BTreeMap::new(),
            pruned_oifs: BTreeMap::new(),
            rp_timer: None,
            pruned_from_shared: false,
            delete_at: None,
            suppressed_until: None,
            local_source: false,
            next_register_probe: SimTime::ZERO,
        }
    }

    /// Is this a negative cache — an (S,G) entry with the RP bit set?
    pub fn is_negative(&self) -> bool {
        self.rp_bit && !self.wildcard
    }

    /// Add or refresh an outgoing interface. A [`OifKind::Joined`] add
    /// upgrades a copied oif (an explicit join now backs it) and clears a
    /// pending deletion.
    pub fn add_oif(&mut self, iface: IfaceId, kind: OifKind, expires_at: SimTime) {
        let oif = self.oifs.entry(iface).or_insert(Oif { kind, expires_at });
        // Refresh, and upgrade Copied → Joined / Local.
        if oif.expires_at < expires_at {
            oif.expires_at = expires_at;
        }
        if oif.kind == OifKind::CopiedFromStar && kind != OifKind::CopiedFromStar {
            oif.kind = kind;
        }
        if kind == OifKind::LocalMembers {
            oif.kind = OifKind::LocalMembers;
            oif.expires_at = SimTime(u64::MAX);
        }
        self.delete_at = None;
    }

    /// Remove an outgoing interface; returns true if it was present.
    pub fn remove_oif(&mut self, iface: IfaceId) -> bool {
        self.oifs.remove(&iface).is_some()
    }

    /// The interfaces a matching data packet is forwarded to, excluding
    /// `arrival` (never send a packet back where it came from).
    pub fn forward_set(&self, arrival: Option<IfaceId>) -> Vec<IfaceId> {
        self.oifs
            .keys()
            .copied()
            .filter(|&i| Some(i) != arrival && Some(i) != self.iif)
            .collect()
    }

    /// True when the oif list is empty — the §3.6 trigger for pruning
    /// upstream and scheduling deletion.
    pub fn oifs_empty(&self) -> bool {
        self.oifs.is_empty()
    }

    /// Does the entry have a local-member oif (this router is a "router
    /// with directly-connected members", §3.3)?
    pub fn has_local_members(&self) -> bool {
        self.oifs.values().any(|o| o.kind == OifKind::LocalMembers)
    }

    /// Expire lapsed oifs at `now`; returns the removed interfaces (§3.6:
    /// "when a timer expires, the corresponding outgoing interface is
    /// deleted from the outgoing interface list").
    pub fn expire_oifs(&mut self, now: SimTime) -> Vec<IfaceId> {
        let lapsed: Vec<IfaceId> = self
            .oifs
            .iter()
            .filter(|(_, o)| o.kind != OifKind::LocalMembers && now >= o.expires_at)
            .map(|(&i, _)| i)
            .collect();
        for &i in &lapsed {
            self.oifs.remove(&i);
        }
        lapsed
    }

    /// The earliest pending timer of this entry: oif expiries (excluding
    /// IGMP-pinned local-member oifs), pruned-oif lease lapses, the RP
    /// liveness timer, and the deletion deadline. `suppressed_until` is
    /// deliberately excluded — it is only consulted when the periodic
    /// refresh fires, so it never needs a wakeup of its own.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let mut best = netsim::earliest(self.rp_timer, self.delete_at);
        for o in self.oifs.values() {
            if o.kind != OifKind::LocalMembers && o.expires_at != SimTime(u64::MAX) {
                best = netsim::earliest(best, Some(o.expires_at));
            }
        }
        best = netsim::earliest(best, self.pruned_oifs.values().copied().min());
        best
    }
}

/// The state kept for one group: the optional shared-tree entry plus
/// per-source entries. Source entries are keyed by source address; an
/// entry's `rp_bit` distinguishes SPT state from negative caches.
#[derive(Clone, Debug, Default)]
pub struct GroupState {
    /// The (\*,G) entry, if any.
    pub star: Option<Entry>,
    /// (S,G) entries (both SPT and negative-cache), keyed by source.
    pub sources: BTreeMap<Addr, Entry>,
    /// The RPs advertised for this group, in preference order (§3.9).
    pub rps: Vec<Addr>,
    /// Index into `rps` of the RP this router's receivers currently join
    /// toward.
    pub current_rp: usize,
}

impl GroupState {
    /// The RP receivers currently join toward.
    pub fn rp(&self) -> Option<Addr> {
        self.rps.get(self.current_rp).copied()
    }

    /// Advance to the next RP in the list (failover, §3.9); wraps around.
    /// Returns the new RP.
    pub fn next_rp(&mut self) -> Option<Addr> {
        if self.rps.is_empty() {
            return None;
        }
        self.current_rp = (self.current_rp + 1) % self.rps.len();
        self.rp()
    }

    /// The §3.5 longest-match rule: an (S,G) entry — SPT or negative cache
    /// — matches before the (\*,G) entry.
    pub fn match_data(&self, source: Addr) -> Option<&Entry> {
        self.sources.get(&source).or(self.star.as_ref())
    }

    /// Total number of forwarding entries (state-overhead metric).
    pub fn entry_count(&self) -> usize {
        self.sources.len() + usize::from(self.star.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Group {
        Group::test(1)
    }

    fn rp() -> Addr {
        Addr::new(10, 0, 0, 9)
    }

    fn src() -> Addr {
        Addr::new(10, 0, 7, 10)
    }

    #[test]
    fn entry_shapes() {
        let star = Entry::new_star(g(), rp(), Some(IfaceId(1)), Some(rp()));
        assert!(star.wildcard && star.rp_bit && !star.is_negative());
        let spt = Entry::new_source(g(), src(), Some(IfaceId(2)), None);
        assert!(!spt.wildcard && !spt.rp_bit && !spt.is_negative());
        let neg = Entry::new_negative(g(), src(), Some(IfaceId(1)), Some(rp()));
        assert!(neg.is_negative());
    }

    #[test]
    fn add_refresh_upgrade_oif() {
        let mut e = Entry::new_star(g(), rp(), Some(IfaceId(0)), None);
        e.add_oif(IfaceId(2), OifKind::CopiedFromStar, SimTime(100));
        assert_eq!(e.oifs[&IfaceId(2)].kind, OifKind::CopiedFromStar);
        // Refresh extends, never shortens.
        e.add_oif(IfaceId(2), OifKind::CopiedFromStar, SimTime(50));
        assert_eq!(e.oifs[&IfaceId(2)].expires_at, SimTime(100));
        e.add_oif(IfaceId(2), OifKind::Joined, SimTime(200));
        assert_eq!(e.oifs[&IfaceId(2)].kind, OifKind::Joined);
        assert_eq!(e.oifs[&IfaceId(2)].expires_at, SimTime(200));
        // Local members pin the oif open.
        e.add_oif(IfaceId(2), OifKind::LocalMembers, SimTime(0));
        assert_eq!(e.oifs[&IfaceId(2)].kind, OifKind::LocalMembers);
        assert_eq!(e.oifs[&IfaceId(2)].expires_at, SimTime(u64::MAX));
    }

    #[test]
    fn add_oif_clears_pending_delete() {
        let mut e = Entry::new_star(g(), rp(), Some(IfaceId(0)), None);
        e.delete_at = Some(SimTime(500));
        e.add_oif(IfaceId(1), OifKind::Joined, SimTime(100));
        assert_eq!(e.delete_at, None);
    }

    #[test]
    fn forward_set_excludes_iif_and_arrival() {
        let mut e = Entry::new_star(g(), rp(), Some(IfaceId(0)), None);
        e.add_oif(IfaceId(1), OifKind::Joined, SimTime(100));
        e.add_oif(IfaceId(2), OifKind::Joined, SimTime(100));
        e.add_oif(IfaceId(0), OifKind::Joined, SimTime(100)); // pathological: iif in oifs
        assert_eq!(e.forward_set(None), vec![IfaceId(1), IfaceId(2)]);
        assert_eq!(e.forward_set(Some(IfaceId(1))), vec![IfaceId(2)]);
    }

    #[test]
    fn oif_expiry() {
        let mut e = Entry::new_star(g(), rp(), Some(IfaceId(0)), None);
        e.add_oif(IfaceId(1), OifKind::Joined, SimTime(100));
        e.add_oif(IfaceId(2), OifKind::Joined, SimTime(200));
        e.add_oif(IfaceId(3), OifKind::LocalMembers, SimTime(0));
        assert!(e.expire_oifs(SimTime(50)).is_empty());
        assert_eq!(e.expire_oifs(SimTime(150)), vec![IfaceId(1)]);
        assert_eq!(e.expire_oifs(SimTime(10_000)), vec![IfaceId(2)]);
        // Local-member oifs never expire via PIM timers.
        assert!(e.has_local_members());
        assert!(!e.oifs_empty());
    }

    #[test]
    fn group_state_longest_match() {
        let mut gs = GroupState {
            star: Some(Entry::new_star(g(), rp(), Some(IfaceId(0)), None)),
            ..Default::default()
        };
        gs.sources
            .insert(src(), Entry::new_source(g(), src(), Some(IfaceId(2)), None));
        assert!(!gs.match_data(src()).unwrap().wildcard);
        assert!(gs.match_data(Addr::new(10, 9, 9, 9)).unwrap().wildcard);
        assert_eq!(gs.entry_count(), 2);
    }

    #[test]
    fn rp_failover_cycles() {
        let mut gs = GroupState {
            rps: vec![rp(), Addr::new(10, 0, 0, 8)],
            ..Default::default()
        };
        assert_eq!(gs.rp(), Some(rp()));
        assert_eq!(gs.next_rp(), Some(Addr::new(10, 0, 0, 8)));
        assert_eq!(gs.next_rp(), Some(rp())); // wraps
        let mut empty = GroupState::default();
        assert_eq!(empty.rp(), None);
        assert_eq!(empty.next_rp(), None);
    }
}
