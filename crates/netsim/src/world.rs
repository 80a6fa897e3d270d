//! The discrete-event simulation world: nodes, links, and one event heap
//! that dispatches every node callback in canonical order.
//!
//! The simulator is deliberately simple (smoltcp-style "simplicity and
//! robustness"): links have a fixed propagation delay and optional random
//! loss, nodes are trait objects that react to packets and timers, and all
//! randomness flows from seeded per-node RNG streams so every run is
//! reproducible. Links can additionally carry a deterministic capacity
//! model ([`LinkCapacity`]): per-direction bandwidth in bytes/tick with a
//! bounded FIFO transmit queue, serialization + queueing delay, tail-drop
//! on overflow, and ECN-style marking — all computed from queue state
//! alone, never from randomness, so a capacity-disabled world (the
//! default) reproduces pre-capacity traces byte-identically.
//!
//! # Units
//!
//! Two impairment knobs use different units for historical reasons, kept
//! deliberately distinct: [`Link::loss`] is a *fraction* (`f64` in
//! `[0, 1]`, clamped at set time) because it predates the text-round-trip
//! requirement, while every [`ChannelModel`] probability is integer
//! *per-mille* (`0..=1000`) so fault schedules carrying them round-trip
//! exactly through text. [`LinkCapacity`] fields are plain integers
//! (bytes/tick and bytes) for the same round-trip reason.
//!
//! # Event core (DESIGN.md §9)
//!
//! One heap and one event arena hold every pending delivery and timer;
//! scripts wait in a queue of their own and run before the node events
//! of their tick. Every dispatch gets a **canonical tag** `(time, epoch,
//! node, node's dispatch seq)`, and every event it creates is keyed by
//! that tag plus a 1-based emission index. The heap orders events by
//! due time, then by the receiving node, then by the creating tag.
//! Because every link takes at least one tick, nothing a dispatch
//! creates is due in the same tick at another node, so the heap runs
//! each tick's nodes in ascending index order: its dispatch order *is*
//! tag order.
//!
//! # Determinism contract
//!
//! Per-node RNG streams are a pure function of the world seed and the
//! node index, and no tag ever depends on a global insertion counter.
//! Telemetry is stamped with the running dispatch's tag and cause and
//! written straight to the user's sink in dispatch order — the
//! canonical order: each tick's scripts, then its heap dispatches in
//! tag order. Receptions, counters, captures and the telemetry byte
//! stream are therefore a pure function of the seed and the scenario.

use crate::counters::{Counters, PacketClass};
use crate::profile::SimProfile;
use crate::time::{Duration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// RNG stream id for per-node streams (see [`par::mix`]): node `i`'s
/// stream is `mix(world_seed, NODE_RNG_STREAM, i)`, disjoint from the
/// trial-level streams the bench drivers derive from the same seed.
const NODE_RNG_STREAM: u64 = 0x6E6F_6465; // "node"

/// Canonical-key epoch for start-of-world dispatches (`on_start`): they
/// sort before any runtime event at the same tick.
const EPOCH_START: u8 = 0;
/// Canonical-key epoch for scripts. Scripts live in a separate
/// world-level queue and never enter the event heap; the epoch exists so
/// a script dispatch has a canonical identity of its own — the causal
/// root every fault injection's consequences hang off — that sorts
/// before the node events it triggers at the same tick.
const EPOCH_SCRIPT: u8 = 1;
/// Canonical-key epoch for runtime node events (deliveries, timers, and
/// node calls made from scripts).
const EPOCH_EVENT: u8 = 2;

/// Index of a node in the world.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeIdx(pub usize);

impl fmt::Debug for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// A node-local interface index: position in the node's own interface list.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IfaceId(pub u32);

impl IfaceId {
    /// As a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for IfaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "if{}", self.0)
    }
}

impl fmt::Display for IfaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "if{}", self.0)
    }
}

/// Index of a link in the world.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Whether a link is a point-to-point wire or a multi-access LAN.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkKind {
    /// Exactly two attachments; a send by one is delivered to the other.
    PointToPoint,
    /// Any number of attachments; a send by one is delivered to all others
    /// (needed for the paper's §3.7 multi-access subnetwork behaviors:
    /// prune override, join suppression, DR election).
    Lan,
}

/// Per-link adversarial impairments, applied independently per receiver
/// copy at transmit time from the sender's seeded RNG stream — a real
/// wide-area fabric does not just drop packets, it also corrupts,
/// duplicates, and reorders them (the regime where the paper's §2
/// soft-state robustness claim must hold).
///
/// Probabilities are integer per-mille (`0..=1000`), never floats, so
/// scenario schedules carrying them round-trip exactly through text.
/// The default (all zeros) is a clean channel that consumes no
/// randomness, leaving pre-existing traces byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelModel {
    /// Per-mille probability that a delivered copy has one byte flipped.
    pub corrupt_pm: u32,
    /// Per-mille probability that a receiver gets the packet twice.
    pub duplicate_pm: u32,
    /// Per-mille probability that a copy is delayed past later traffic.
    pub reorder_pm: u32,
    /// Maximum extra delay (in ticks) added to a reordered copy; the
    /// actual extra delay is drawn uniformly from `1..=jitter.max(1)`.
    pub jitter: u64,
}

impl ChannelModel {
    /// A clean channel: no corruption, duplication, or reordering.
    pub const CLEAN: ChannelModel = ChannelModel {
        corrupt_pm: 0,
        duplicate_pm: 0,
        reorder_pm: 0,
        jitter: 0,
    };

    /// True when every impairment probability is zero (the transmit path
    /// then consumes no randomness for this model).
    pub fn is_clean(&self) -> bool {
        self.corrupt_pm == 0 && self.duplicate_pm == 0 && self.reorder_pm == 0
    }
}

/// Deterministic per-direction link capacity: bandwidth in bytes/tick
/// with a bounded FIFO transmit queue (the ce-netsim design from the
/// ROADMAP). Every quantity is an integer and every decision is a pure
/// function of queue state — the capacity path consumes **no randomness**,
/// so enabling it on some links leaves the RNG streams (and therefore
/// every loss/impairment roll) of a run untouched.
///
/// Each *direction* of a link — each `(link, sending node)` pair — has its
/// own queue: a sender transmitting `len` bytes first drains its backlog
/// by `elapsed × bytes_per_tick`, then tail-drops the packet if
/// `backlog + len` would exceed `queue_bytes`, otherwise enqueues it and
/// delivers after `ceil(backlog / bytes_per_tick)` serialization +
/// queueing delay on top of the link's propagation delay. Crossing
/// `ecn_bytes` (when nonzero) counts an ECN-style congestion mark.
///
/// With `ctrl_priority` (the default), control-class packets — soft-state
/// refreshes, Joins/Prunes, IGMP queries (see
/// [`crate::counters::PacketClass`]) — bypass the data queue entirely:
/// the paper's §3 graceful-degradation argument requires that the
/// control plane keeps converging while the data plane saturates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkCapacity {
    /// Bandwidth in bytes per tick; `0` disables the capacity model for
    /// the link (unlimited, the default — no queueing, no drops).
    pub bytes_per_tick: u64,
    /// Transmit queue bound in bytes; a packet that would push the
    /// backlog past this is tail-dropped at the sender.
    pub queue_bytes: u64,
    /// ECN-style marking threshold in bytes (`0` = no marking): an
    /// enqueue that pushes the backlog past this counts a congestion
    /// mark (observable in counters/telemetry, not in packet bytes).
    pub ecn_bytes: u64,
    /// Control-class packets bypass the queue (never dropped or delayed
    /// by data backlog). Disable to model a fabric without priority —
    /// the configuration the no-starvation oracle exists to catch.
    pub ctrl_priority: bool,
}

impl LinkCapacity {
    /// No capacity model: unlimited bandwidth, no queueing (the default).
    pub const UNLIMITED: LinkCapacity = LinkCapacity {
        bytes_per_tick: 0,
        queue_bytes: 0,
        ecn_bytes: 0,
        ctrl_priority: true,
    };

    /// True when the capacity model is disabled for this link — the
    /// transmit path then takes the pre-capacity fast path untouched.
    pub fn is_unlimited(&self) -> bool {
        self.bytes_per_tick == 0
    }
}

impl Default for LinkCapacity {
    fn default() -> Self {
        LinkCapacity::UNLIMITED
    }
}

/// A link connecting node interfaces.
#[derive(Debug)]
pub struct Link {
    /// Point-to-point or LAN.
    pub kind: LinkKind,
    /// One-way propagation delay.
    pub delay: Duration,
    /// Administratively/physically up?
    pub up: bool,
    /// Per-receiver independent drop probability (failure injection).
    /// A **fraction** in `[0, 1]` — unlike [`ChannelModel`], whose
    /// probabilities are integer per-mille (see the module doc's Units
    /// section). Clamped into range by [`World::set_link_loss`].
    pub loss: f64,
    /// Adversarial impairments (corrupt/duplicate/reorder).
    pub channel: ChannelModel,
    /// Deterministic bandwidth/queue model (default: unlimited).
    pub capacity: LinkCapacity,
    /// The attached `(node, iface)` pairs.
    pub attachments: Vec<(NodeIdx, IfaceId)>,
}

/// A simulated node. Implementations wrap sans-IO protocol engines and
/// translate their outputs into [`Ctx`] calls.
pub trait Node {
    /// Called once when the simulation starts, before any packets flow.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A packet arrived on `iface`. `packet` is the full serialized buffer
    /// (network header included).
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &[u8]);

    /// A timer set via [`Ctx::set_timer`]/[`Ctx::set_timer_at`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64);

    /// The node crashed with total state loss ([`World::crash_node`]).
    /// Implementations drop all volatile protocol state; static
    /// configuration (addresses, interface roles) survives, modelling a
    /// router whose config is in NVRAM but whose RAM is gone. No [`Ctx`] is
    /// provided — a dead node cannot send or arm timers.
    fn on_crash(&mut self) {}

    /// The node powered back up after a crash ([`World::restart_node`]).
    /// Default: cold-boot via [`Node::on_start`].
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.on_start(ctx);
    }

    /// The world attached a telemetry sink ([`World::set_telemetry`]):
    /// adopt the per-node handle for protocol-level emissions. Default:
    /// ignore (nodes that emit nothing need no handle).
    fn set_telemetry(&mut self, _telem: telemetry::Telem) {}

    /// Downcast support for post-run inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support for scenario scripting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The canonical key of a dispatch or of an event.
///
/// `origin` is the creating node's index + 1 (0 is reserved for the
/// world itself, which keys its scripts); `seq` is the creating
/// dispatch's per-node sequence number; `emit` is the 1-based emission
/// index within that dispatch (0 is reserved for the dispatch's own
/// identity tag, used to key telemetry and captures). Every component
/// is derived from the creating node's own deterministic history —
/// never from a global insertion counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Tag {
    time: SimTime,
    epoch: u8,
    origin: u32,
    seq: u64,
    emit: u32,
}

impl Tag {
    /// The dispatch-identity part of the tag as a public
    /// [`telemetry::EventId`]. The `emit` component is dropped: causal
    /// provenance identifies *dispatches* (always `emit == 0`), and the
    /// tags stored as causes are exactly the identity tags.
    fn event_id(self) -> telemetry::EventId {
        telemetry::EventId {
            time: self.time.ticks(),
            epoch: self.epoch,
            origin: self.origin,
            seq: self.seq,
        }
    }
}

enum Event {
    Deliver {
        node: NodeIdx,
        iface: IfaceId,
        /// Shared, immutable payload: a LAN transmit enqueues one
        /// delivery per attached receiver, and the `Arc` makes each a
        /// refcount bump on the single serialized buffer instead of a
        /// per-receiver copy. Receivers only ever see `&[u8]`
        /// ([`Node::on_packet`]), so immutability is free.
        packet: Arc<[u8]>,
        link: LinkId,
    },
    Timer {
        node: NodeIdx,
        token: u64,
    },
}

impl Event {
    /// The node the event will be dispatched to.
    fn node(&self) -> NodeIdx {
        match self {
            Event::Deliver { node, .. } | Event::Timer { node, .. } => *node,
        }
    }
}

/// Handle to a scheduled timer, usable with [`Ctx::cancel_timer`].
///
/// Generation-counted: event slots are recycled once an event fires or is
/// cancelled, and the generation disambiguates a handle from any later
/// tenant of the same slot, so cancelling an already-fired timer is a safe
/// no-op rather than an ABA hazard. A handle is only meaningful to the
/// node that armed the timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerId {
    slot: usize,
    gen: u32,
}

/// One event-arena slot. The heap stores a [`Due`] naming the slot and
/// its generation; a popped entry whose generation no longer matches (or
/// whose slot is empty) is a cancelled timer and is skipped without
/// dispatch.
struct EventSlot {
    gen: u32,
    ev: Option<Event>,
    /// Identity tag of the dispatch that created this event — the
    /// event's causal parent, threaded into the handling dispatch so
    /// every consequence links back to its cause.
    cause: Tag,
}

/// A heap entry, ordered by due time, then the receiving node, then the
/// creating tag. Ordering by receiver inside a tick makes the heap
/// dispatch in tag order; among one node's events the creating tag
/// decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Due {
    time: SimTime,
    node: usize,
    tag: Tag,
    slot: usize,
    gen: u32,
}

/// One captured transmission (see [`World::enable_capture`]).
#[derive(Clone, Debug)]
pub struct CaptureRecord {
    /// Transmission time.
    pub at: SimTime,
    /// The link transmitted on.
    pub link: LinkId,
    /// The transmitting node.
    pub from: NodeIdx,
    /// Human-readable decode of the packet (see [`crate::trace`]).
    pub summary: String,
}

/// The sink every emitter writes through once telemetry is attached: it
/// forwards each event to the user's sink stamped with the identity and
/// cause of the running dispatch (`None` for causal roots).
struct Stamp {
    sink: telemetry::SharedSink,
    id: Tag,
    cause: Option<Tag>,
}

impl telemetry::Sink for Stamp {
    fn event(&mut self, node: u32, at: u64, ev: &telemetry::Event) {
        let prov = telemetry::Provenance {
            id: self.id.event_id(),
            cause: self.cause.map(Tag::event_id),
        };
        self.sink
            .lock()
            .expect("sink poisoned")
            .event_caused(node, at, ev, prov);
    }
}

/// Per-direction transmit-queue state for the capacity model: one entry
/// per `(link, sending node)` pair that has ever transmitted on a
/// capacity-limited link. Only the sender's own dispatches touch it.
#[derive(Clone, Copy, Default)]
struct TxDir {
    /// Last time the backlog was drained.
    last: SimTime,
    /// Queued bytes not yet serialized onto the wire.
    backlog: u64,
    /// Highest power-of-2 backlog bucket seen, for rate-limited
    /// queue-depth telemetry: one event per new peak bucket, not one
    /// per packet, keeps the stream bounded and deterministic.
    peak_bucket: u32,
}

/// The per-callback view of the world handed to [`Node`] implementations.
pub struct Ctx<'a> {
    world: &'a mut World,
    node: NodeIdx,
    /// The dispatch's canonical identity tag (`emit == 0`).
    tag: Tag,
    /// Emission counter: 1-based `emit` component for created events.
    emits: u32,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The index of the node being called.
    pub fn me(&self) -> NodeIdx {
        self.node
    }

    /// Number of interfaces this node has.
    pub fn iface_count(&self) -> usize {
        self.world.ifaces[self.node.0].len()
    }

    /// Emit a structured telemetry event on behalf of `node`. The
    /// closure runs only when a sink is attached, so the disabled path
    /// never constructs (or allocates for) the event.
    #[inline]
    fn emit(&mut self, node: NodeIdx, f: impl FnOnce() -> telemetry::Event) {
        if let Some(stamp) = &self.world.stamp {
            let ev = f();
            use telemetry::Sink as _;
            stamp.lock().expect("telemetry stamp poisoned").event(
                node.0 as u32,
                self.world.now.ticks(),
                &ev,
            );
        }
    }

    /// The canonical tag for the next event this dispatch creates.
    fn next_tag(&mut self, time: SimTime) -> Tag {
        self.emits += 1;
        Tag {
            time,
            epoch: EPOCH_EVENT,
            origin: self.tag.origin,
            seq: self.tag.seq,
            emit: self.emits,
        }
    }

    /// Transmit `packet` out of `(node, iface)`: schedule deliveries to
    /// all other attachments of the link after its propagation delay,
    /// applying the link's loss probability independently per receiver.
    /// All rolls come from the *sender's* RNG stream, during the
    /// sender's own dispatch — which keeps impairments a pure function
    /// of the seed and the sender's history.
    fn transmit(&mut self, iface: IfaceId, packet: Vec<u8>) {
        let from = self.node;
        let link_id = self.world.ifaces[from.0][iface.index()];
        let link = &self.world.links[link_id.0];
        if !link.up {
            return;
        }
        let (class, proto) = PacketClass::classify_full(&packet);
        // Deterministic capacity model (see [`LinkCapacity`]): drain the
        // sender's per-direction backlog by elapsed time, tail-drop on
        // overflow, otherwise enqueue and pay serialization + queueing
        // delay. Everything here is pure integer arithmetic on queue
        // state — no RNG draw ever happens on this path, so a world with
        // capacity disabled (or only *other* links capped) keeps its
        // random streams, and therefore its traces, byte-identical.
        // Control-class packets bypass the queue when the link grants
        // them priority: the structural guarantee behind the
        // no-starvation oracle.
        let cap = link.capacity;
        let mut qdelay = Duration(0);
        let priority_bypass = cap.ctrl_priority && class == PacketClass::Control;
        if !cap.is_unlimited() && !priority_bypass {
            let len = packet.len() as u64;
            let rate = cap.bytes_per_tick;
            let now = self.world.now;
            let (dropped, backlog, marked, new_peak) = {
                let q = self.world.tx_queues.entry((link_id.0, from.0)).or_default();
                let elapsed = now.ticks().saturating_sub(q.last.ticks());
                q.backlog = q.backlog.saturating_sub(elapsed.saturating_mul(rate));
                q.last = now;
                if q.backlog.saturating_add(len) > cap.queue_bytes {
                    (true, q.backlog, false, false)
                } else {
                    let marked = cap.ecn_bytes > 0 && q.backlog + len > cap.ecn_bytes;
                    q.backlog += len;
                    // Rate-limit queue-depth telemetry to new power-of-2
                    // peak buckets so the stream stays bounded however
                    // long the overload lasts.
                    let bucket = 64 - q.backlog.leading_zeros();
                    let new_peak = bucket > q.peak_bucket;
                    if new_peak {
                        q.peak_bucket = bucket;
                    }
                    (false, q.backlog, marked, new_peak)
                }
            };
            if dropped {
                // Tail drop at the sender: the packet never reaches the
                // wire — no tx accounting, no capture, no deliveries.
                self.world.counters.record_queue_drop(link_id, class);
                let what = match class {
                    PacketClass::Control => "ctrl",
                    PacketClass::Data => "data",
                };
                self.emit(from, || telemetry::Event::QueueDrop {
                    what,
                    link: link_id.0 as u32,
                });
                return;
            }
            self.world
                .counters
                .record_queue_depth(link_id, backlog, cap.queue_bytes);
            if marked {
                self.world.counters.record_ecn_mark(link_id);
                self.emit(from, || telemetry::Event::EcnMark {
                    link: link_id.0 as u32,
                });
            }
            if new_peak {
                self.emit(from, || telemetry::Event::QueueDepth {
                    link: link_id.0 as u32,
                    bytes: backlog,
                });
            }
            // Ceil division: a partially serialized packet occupies the
            // wire for the whole remaining tick. Queueing can only push
            // deliveries later, never earlier.
            qdelay = Duration(backlog.div_ceil(rate));
        }
        let now = self.world.now;
        self.world
            .counters
            .record_tx(link_id, class, proto, packet.len(), now);
        if let Some(limit) = self.world.capture_limit {
            if limit > 0 {
                let cs = self.world.cap_seq;
                self.world.cap_seq += 1;
                let cap = &mut self.world.capture;
                // Keep the canonically-*smallest* `limit` records, not the
                // first-inserted: a script's node calls run before the
                // heap's dispatches of the same tick whatever their tags,
                // so insertion order is not canonical order. Bounded
                // replacement preserves the invariant `captured()` relies
                // on.
                let full = cap.len() >= limit;
                let evict = if full {
                    let (i, (t, c, _)) = cap
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, (t, c, _))| (*t, *c))
                        .expect("non-empty capture");
                    if (self.tag, cs) < (*t, *c) {
                        Some(i)
                    } else {
                        None
                    }
                } else {
                    None
                };
                if !full || evict.is_some() {
                    let rec = CaptureRecord {
                        at: now,
                        link: link_id,
                        from,
                        summary: crate::trace::describe_packet(&packet),
                    };
                    match evict {
                        Some(i) => cap[i] = (self.tag, cs, rec),
                        None => cap.push((self.tag, cs, rec)),
                    }
                }
            }
        }
        let link = &self.world.links[link_id.0];
        let loss = link.loss;
        let chan = link.channel;
        let n_att = link.attachments.len();
        let at = now + link.delay + qdelay;
        // One shared buffer for the whole fan-out; each delivery below is
        // a refcount bump, not a copy of the packet bytes. Attachments are
        // walked by index (re-reading the link each step) so the fan-out
        // allocates nothing beyond the Arc itself — collecting the
        // destination list first cost a Vec per transmit on the hot path.
        let packet: Arc<[u8]> = packet.into();
        for ai in 0..n_att {
            let (n, i) = self.world.links[link_id.0].attachments[ai];
            if (n, i) == (from, iface) {
                continue;
            }
            if !self.world.node_up[n.0] {
                self.world.counters.record_pkt_dropped_node_down();
                continue;
            }
            if loss > 0.0 && self.rng().gen::<f64>() < loss {
                self.world.counters.record_loss(link_id);
                continue;
            }
            // Adversarial channel: per-receiver rolls in a fixed order
            // (duplicate, then corrupt and reorder per copy) so traces are
            // a pure function of the seed. Each roll happens only when its
            // probability is nonzero — a clean channel consumes no
            // randomness and pre-existing traces stay byte-identical.
            let copies =
                if chan.duplicate_pm > 0 && self.rng().gen_range(0..1000) < chan.duplicate_pm {
                    self.world.counters.record_duplicated(link_id);
                    self.emit(n, || telemetry::Event::ChannelImpaired {
                        what: "duplicate",
                        link: link_id.0 as u32,
                    });
                    2
                } else {
                    1
                };
            for _ in 0..copies {
                let mut copy = packet.clone();
                let mut due = at;
                if chan.corrupt_pm > 0 && self.rng().gen_range(0..1000) < chan.corrupt_pm {
                    // Flip one random bit of one random byte. The shared
                    // Arc must never be mutated (other receivers see the
                    // same buffer), so the corrupted copy gets its own
                    // private allocation.
                    let mut bytes = copy.to_vec();
                    if !bytes.is_empty() {
                        let idx = self.rng().gen_range(0..bytes.len());
                        let bit = 1u8 << self.rng().gen_range(0..8u32);
                        bytes[idx] ^= bit;
                    }
                    copy = bytes.into();
                    self.world.counters.record_corrupted(link_id);
                    self.emit(n, || telemetry::Event::ChannelImpaired {
                        what: "corrupt",
                        link: link_id.0 as u32,
                    });
                }
                if chan.reorder_pm > 0 && self.rng().gen_range(0..1000) < chan.reorder_pm {
                    due += Duration(self.rng().gen_range(1..=chan.jitter.max(1)));
                    self.world.counters.record_reordered(link_id);
                    self.emit(n, || telemetry::Event::ChannelImpaired {
                        what: "reorder",
                        link: link_id.0 as u32,
                    });
                }
                let tag = self.next_tag(due);
                let ev = Event::Deliver {
                    node: n,
                    iface: i,
                    packet: copy,
                    link: link_id,
                };
                self.world.push_event(tag, self.tag, ev);
            }
        }
    }

    /// Transmit a serialized packet out of `iface`.
    pub fn send(&mut self, iface: IfaceId, packet: Vec<u8>) {
        debug_assert!(
            iface.index() < self.iface_count(),
            "send on nonexistent interface {iface:?}"
        );
        self.transmit(iface, packet);
    }

    /// Arrange for [`Node::on_timer`] to be called with `token` after `d`.
    pub fn set_timer(&mut self, d: Duration, token: u64) -> TimerId {
        self.set_timer_at(self.world.now + d, token)
    }

    /// Arrange for [`Node::on_timer`] to be called with `token` at absolute
    /// time `at` (clamped to now: a past deadline fires this instant, after
    /// the current event). Returns a handle for [`Ctx::cancel_timer`].
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) -> TimerId {
        let at = at.max(self.world.now);
        let me = self.node;
        self.emit(me, || telemetry::Event::TimerArmed {
            token,
            deadline: at.ticks(),
        });
        let tag = self.next_tag(at);
        self.world
            .push_event(tag, self.tag, Event::Timer { node: me, token })
    }

    /// Cancel a pending timer. Returns `true` if the timer was still
    /// pending and belonged to this node; stale handles (the timer already
    /// fired, was cancelled, or the slot was recycled) are a no-op. The
    /// heap entry stays behind and is skipped — and counted as stale — when
    /// popped.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        let Some(s) = self.world.events.get(id.slot) else {
            return false;
        };
        if s.gen != id.gen {
            return false;
        }
        match s.ev {
            Some(Event::Timer { node, token }) if node == self.node => {
                self.world.vacate(id.slot);
                let me = self.node;
                self.emit(me, || telemetry::Event::TimerCancelled { token });
                true
            }
            _ => false,
        }
    }

    /// Seeded randomness for protocol jitter (e.g. IGMP report delays).
    /// Each node draws from its own stream — a pure function of the world
    /// seed and the node index — so one node's draws can never perturb
    /// another's.
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.world.rngs[self.node.0]
    }

    /// Is the link behind `iface` currently up?
    pub fn iface_up(&self, iface: IfaceId) -> bool {
        let link = self.world.ifaces[self.node.0][iface.index()];
        self.world.links[link.0].up
    }

    /// Record that a data packet was delivered to a locally attached group
    /// member (for the experiment counters).
    pub fn count_local_delivery(&mut self) {
        self.world.counters.record_local_delivery(self.node);
    }

    /// Record that a received payload failed to decode and was dropped
    /// (see [`crate::Counters::total_decode_failures`]), emitting one
    /// telemetry [`telemetry::Event::DecodeFailed`] mark.
    pub fn count_decode_failure(&mut self, iface: IfaceId, kind: &'static str) {
        self.world.counters.record_decode_failure(self.node);
        let me = self.node;
        self.emit(me, || telemetry::Event::DecodeFailed {
            kind,
            iface: iface.0,
        });
    }
}

/// A scheduled script, ordered by `(at, seq)`. Scripts live in their own
/// queue (their closures mutate the whole world) and all scripts at tick
/// `t` run before any node event at tick `t`.
struct ScriptEntry {
    at: SimTime,
    seq: u64,
    f: Box<dyn FnOnce(&mut World)>,
}

impl PartialEq for ScriptEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for ScriptEntry {}

impl PartialOrd for ScriptEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScriptEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The simulation world.
pub struct World {
    /// Nodes by index; a node is taken out while its callback runs.
    nodes: Vec<Option<Box<dyn Node>>>,
    rngs: Vec<StdRng>,
    /// Per-node dispatch counter: the `seq` component of canonical tags.
    dispatch_seq: Vec<u64>,
    /// node_up[node.0]: false while the node is crashed. Down nodes get no
    /// deliveries and no timer callbacks.
    node_up: Vec<bool>,
    links: Vec<Link>,
    /// ifaces[node.0][iface.0] = link the interface attaches to.
    ifaces: Vec<Vec<LinkId>>,
    heap: BinaryHeap<Reverse<Due>>,
    /// Event arena, indexed by the slot carried in the heap. Slots are
    /// vacated (and recycled via `free`) as events fire or are cancelled,
    /// so memory is bounded by *outstanding* events, not events ever
    /// scheduled.
    events: Vec<EventSlot>,
    /// Vacated arena slots available for reuse.
    free: Vec<usize>,
    counters: Counters,
    /// Capacity-model queue state, keyed `(link, sending node)`. Only
    /// populated for links with a [`LinkCapacity`] configured; an
    /// unlimited link never touches it.
    tx_queues: std::collections::HashMap<(usize, usize), TxDir>,
    /// Packet capture limit, `Some(limit)` when enabled.
    capture_limit: Option<usize>,
    /// Captured transmissions: `(dispatch tag, capture seq, record)`.
    capture: Vec<(Tag, u64, CaptureRecord)>,
    cap_seq: u64,
    scripts: BinaryHeap<ScriptEntry>,
    script_seq: u64,
    /// Telemetry, `Some` once a sink is attached.
    stamp: Option<Arc<Mutex<Stamp>>>,
    seed: u64,
    started: bool,
    now: SimTime,
    /// Identity tag of the script currently executing, if any: the
    /// causal root for fault marks and for every node call the script
    /// performs.
    cur_script: Option<Tag>,
    /// Event-count and wall-clock attribution, `Some` when profiling
    /// (see [`World::enable_profile`]). Only the profiler reads
    /// wall-clock; nothing inside the simulation ever does.
    profile: Option<SimProfile>,
}

impl Default for World {
    fn default() -> Self {
        Self::new(0)
    }
}

impl World {
    /// Create an empty world whose RNG streams derive from `seed`.
    pub fn new(seed: u64) -> World {
        World {
            nodes: Vec::new(),
            rngs: Vec::new(),
            dispatch_seq: Vec::new(),
            node_up: Vec::new(),
            links: Vec::new(),
            ifaces: Vec::new(),
            heap: BinaryHeap::new(),
            events: Vec::new(),
            free: Vec::new(),
            counters: Counters::default(),
            tx_queues: std::collections::HashMap::new(),
            capture_limit: None,
            capture: Vec::new(),
            cap_seq: 0,
            scripts: BinaryHeap::new(),
            script_seq: 0,
            stamp: None,
            seed,
            started: false,
            now: SimTime::ZERO,
            cur_script: None,
            profile: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Add a node; returns its index.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeIdx {
        assert!(!self.started, "cannot add nodes after start");
        let idx = self.nodes.len();
        self.nodes.push(Some(node));
        self.rngs.push(StdRng::seed_from_u64(par::mix(
            self.seed,
            NODE_RNG_STREAM,
            idx as u64,
        )));
        self.dispatch_seq.push(0);
        self.ifaces.push(Vec::new());
        self.node_up.push(true);
        NodeIdx(idx)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Inert: the world always runs on one event heap, whatever
    /// `threads` says. It exists only because the frozen benchmark under
    /// `perfbench/` calls it; no other code should. Parallelism lives at
    /// trial level (`par::run_trials`).
    pub fn parallelize(&mut self, _threads: usize) {}

    fn attach(&mut self, node: NodeIdx, link: LinkId) -> IfaceId {
        let ifaces = &mut self.ifaces[node.0];
        ifaces.push(link);
        let iface = IfaceId(ifaces.len() as u32 - 1);
        self.links[link.0].attachments.push((node, iface));
        iface
    }

    /// Wire up a new link of `kind` joining `nodes`. Every hop takes at
    /// least one tick: that is what keeps a dispatch's consequences out
    /// of its own tick at other nodes, and so the heap's dispatch order
    /// canonical.
    fn add_link(&mut self, kind: LinkKind, nodes: &[NodeIdx], delay: Duration) -> LinkId {
        assert!(delay.ticks() >= 1, "link delay must be at least one tick");
        let id = LinkId(self.links.len());
        self.links.push(Link {
            kind,
            delay,
            up: true,
            loss: 0.0,
            channel: ChannelModel::CLEAN,
            capacity: LinkCapacity::UNLIMITED,
            attachments: Vec::new(),
        });
        for &n in nodes {
            self.attach(n, id);
        }
        id
    }

    /// Add a point-to-point link; returns `(link, iface at a, iface at b)`.
    /// Panics if `delay` is under one tick.
    pub fn add_p2p(
        &mut self,
        a: NodeIdx,
        b: NodeIdx,
        delay: Duration,
    ) -> (LinkId, IfaceId, IfaceId) {
        assert_ne!(a, b, "p2p link endpoints must differ");
        let id = self.add_link(LinkKind::PointToPoint, &[a, b], delay);
        let ends = &self.links[id.0].attachments;
        (id, ends[0].1, ends[1].1)
    }

    /// Add a multi-access LAN joining `nodes`; returns the link id and each
    /// node's new interface, in order. Panics if `delay` is under one tick.
    pub fn add_lan(&mut self, nodes: &[NodeIdx], delay: Duration) -> (LinkId, Vec<IfaceId>) {
        assert!(nodes.len() >= 2, "a LAN needs at least two attachments");
        let id = self.add_link(LinkKind::Lan, nodes, delay);
        let ifaces = self.links[id.0].attachments.iter().map(|a| a.1).collect();
        (id, ifaces)
    }

    fn push_event(&mut self, tag: Tag, cause: Tag, ev: Event) -> TimerId {
        let node = ev.node().0;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot].ev = Some(ev);
                self.events[slot].cause = cause;
                slot
            }
            None => {
                self.events.push(EventSlot {
                    gen: 0,
                    ev: Some(ev),
                    cause,
                });
                self.events.len() - 1
            }
        };
        let gen = self.events[slot].gen;
        self.heap.push(Reverse(Due {
            time: tag.time,
            node,
            tag,
            slot,
            gen,
        }));
        TimerId { slot, gen }
    }

    /// Vacate a slot after its event fired or was cancelled: bump the
    /// generation (so outstanding handles and heap entries for this tenant
    /// go stale) and recycle the index. The generation must strictly
    /// increase across a recycle — if it ever wrapped, a 2^32-events-old
    /// stale handle could ABA the slot's new tenant.
    fn vacate(&mut self, slot: usize) -> Event {
        let s = &mut self.events[slot];
        let ev = s.ev.take().expect("vacating an empty event slot");
        let old = s.gen;
        s.gen = old.wrapping_add(1);
        debug_assert!(
            s.gen > old,
            "event-slot generation wrapped: recycled slot would ABA stale handles"
        );
        self.free.push(slot);
        ev
    }

    /// Run one node callback under a fresh canonical dispatch tag,
    /// through the take-call-put dance that lets the node borrow the
    /// world mutably alongside itself. `cause` is the identity tag of
    /// the dispatch that created the event being handled (`None` for
    /// causal roots: `on_start`, and node calls outside any script); it
    /// stamps every emission and is recorded as one provenance edge even
    /// when the callback emits nothing.
    fn dispatch(
        &mut self,
        node: NodeIdx,
        epoch: u8,
        cause: Option<Tag>,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>),
    ) {
        let seq = self.dispatch_seq[node.0];
        self.dispatch_seq[node.0] = seq + 1;
        let tag = Tag {
            time: self.now,
            epoch,
            origin: node.0 as u32 + 1,
            seq,
            emit: 0,
        };
        if let Some(stamp) = &self.stamp {
            let mut s = stamp.lock().expect("telemetry stamp poisoned");
            s.id = tag;
            s.cause = cause;
            s.sink
                .lock()
                .expect("sink poisoned")
                .link(tag.event_id(), cause.map(Tag::event_id));
        }
        let mut node_box = self.nodes[node.0].take().expect("node re-entrancy");
        f(
            node_box.as_mut(),
            &mut Ctx {
                world: self,
                node,
                tag,
                emits: 0,
            },
        );
        self.nodes[node.0] = Some(node_box);
    }

    /// Crash `node` with total state loss (§2 robustness: routers "may
    /// fail"). The node's volatile protocol state is dropped via
    /// [`Node::on_crash`], every timer it has armed is cancelled (counted
    /// in [`Counters::timers_cancelled_node_down`]) so no stale wakeup
    /// fires against the corpse, and packets addressed to it are discarded
    /// until [`World::restart_node`]. No-op if the node is already down.
    pub fn crash_node(&mut self, idx: NodeIdx) {
        if !self.node_up[idx.0] {
            return;
        }
        self.node_up[idx.0] = false;
        // Eagerly vacate every armed timer owned by the node. The heap
        // entries stay behind and are skipped as stale when popped; what
        // matters is that no Timer event can reach a dead node.
        let doomed: Vec<usize> = self
            .events
            .iter()
            .enumerate()
            .filter_map(|(slot, s)| match s.ev {
                Some(Event::Timer { node, .. }) if node == idx => Some(slot),
                _ => None,
            })
            .collect();
        for slot in doomed {
            self.vacate(slot);
            self.counters.record_timer_cancelled_node_down();
        }
        if let Some(node) = self.nodes[idx.0].as_mut() {
            node.on_crash();
        }
    }

    /// Power a crashed node back up: it cold-boots via
    /// [`Node::on_restart`] with whatever static configuration survived
    /// [`Node::on_crash`]. No-op if the node is already up.
    pub fn restart_node(&mut self, idx: NodeIdx) {
        if self.node_up[idx.0] {
            return;
        }
        self.node_up[idx.0] = true;
        let cause = self.cur_script;
        self.dispatch(idx, EPOCH_EVENT, cause, |n, ctx| n.on_restart(ctx));
    }

    /// Is `node` currently up (not crashed)?
    pub fn is_node_up(&self, idx: NodeIdx) -> bool {
        self.node_up[idx.0]
    }

    /// Take a link up or down (topology-change injection).
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.links[link.0].up = up;
    }

    /// Set a link's independent per-receiver drop probability — a
    /// **fraction**, clamped into `[0, 1]` (NaN clamps to 0, i.e. no
    /// loss). Contrast [`World::set_channel_model`], whose probabilities
    /// are integer per-mille; the module doc's Units section explains
    /// the split.
    pub fn set_link_loss(&mut self, link: LinkId, loss: f64) {
        let loss = if loss.is_nan() {
            0.0
        } else {
            loss.clamp(0.0, 1.0)
        };
        self.links[link.0].loss = loss;
    }

    /// Install (or, with [`LinkCapacity::UNLIMITED`], remove) the
    /// deterministic bandwidth/queue model on a link. Both directions get
    /// the same configuration but independent queues. Like every fault
    /// knob, this is for scripts or between runs, never for node
    /// callbacks. Queue state already accumulated on the link survives a
    /// reconfiguration; an unlimited link simply stops consulting it.
    pub fn set_link_capacity(&mut self, link: LinkId, cap: LinkCapacity) {
        self.links[link.0].capacity = cap;
    }

    /// Install an adversarial [`ChannelModel`] on a link (corruption,
    /// duplication, reordering). `ChannelModel::CLEAN` restores a clean
    /// channel.
    pub fn set_channel_model(&mut self, link: LinkId, channel: ChannelModel) {
        assert!(channel.corrupt_pm <= 1000, "corrupt_pm is per-mille");
        assert!(channel.duplicate_pm <= 1000, "duplicate_pm is per-mille");
        assert!(channel.reorder_pm <= 1000, "reorder_pm is per-mille");
        self.links[link.0].channel = channel;
    }

    /// Link metadata.
    pub fn link(&self, link: LinkId) -> &Link {
        &self.links[link.0]
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Overhead counters collected so far.
    pub fn counters(&self) -> Counters {
        self.counters.clone()
    }

    /// Reset the overhead counters (e.g. after protocol warm-up, so an
    /// experiment measures steady state only).
    pub fn reset_counters(&mut self) {
        self.counters = Counters::default();
    }

    /// Attach a structured-event sink for all telemetry: the world's own
    /// events (timer arm / fire / cancel, injected faults) and — via the
    /// [`Node::set_telemetry`] hook wired at start — every node adapter's
    /// protocol events. Telemetry only observes: it consumes no
    /// randomness and takes no behavioral branches, so packet traces
    /// are identical with or without a sink. Events reach `sink` in
    /// canonical dispatch order, each stamped with its dispatch's
    /// provenance.
    pub fn set_telemetry(&mut self, sink: telemetry::SharedSink) {
        assert!(!self.started, "attach telemetry before start");
        self.stamp = Some(Arc::new(Mutex::new(Stamp {
            sink,
            id: Tag::default(),
            cause: None,
        })));
    }

    /// Collect event-count and wall-clock attribution (see
    /// [`SimProfile`]). Profiling is the one place the simulator reads
    /// wall-clock time; it observes only — the event order, RNG streams,
    /// and every deterministic output are untouched. Must be called
    /// before [`World::start`].
    pub fn enable_profile(&mut self) {
        assert!(!self.started, "enable profiling before start");
        self.profile = Some(SimProfile::default());
    }

    /// The attribution profile collected so far, `None` unless
    /// [`World::enable_profile`] was called. Event counts are
    /// deterministic; nanosecond attributions are wall-clock and vary
    /// run to run (never put them in a fingerprint).
    pub fn profile(&self) -> Option<SimProfile> {
        self.profile.clone()
    }

    /// Emit one telemetry event on behalf of `node` (no-op when no sink
    /// is attached). Scenario scripts use this to mark injected faults
    /// so sinks can measure post-fault reconvergence.
    pub fn emit_event(&mut self, node: NodeIdx, ev: telemetry::Event) {
        if let Some(stamp) = &self.stamp {
            // The emitting script's identity is the causal root the
            // event hangs off (fault marks are exactly what
            // `CausalIndex::forward_slice` starts from). Outside any
            // script — possible only from test code — fall back to a
            // sentinel script tag.
            let id = self.cur_script.unwrap_or(Tag {
                time: self.now,
                epoch: EPOCH_SCRIPT,
                origin: u32::MAX,
                seq: u64::MAX,
                emit: 0,
            });
            let stamp = stamp.lock().expect("telemetry stamp poisoned");
            let mut s = stamp.sink.lock().expect("sink poisoned");
            s.link(id.event_id(), None);
            s.event_caused(
                node.0 as u32,
                self.now.ticks(),
                &ev,
                telemetry::Provenance {
                    id: id.event_id(),
                    cause: None,
                },
            );
        }
    }

    /// Start capturing packet transmissions — the simulator's `tcpdump`.
    /// Records up to `limit` packets (time, link, sender, human-readable
    /// decode) from now on; calling again clears the buffer.
    pub fn enable_capture(&mut self, limit: usize) {
        self.capture_limit = Some(limit);
        self.capture.clear();
        self.cap_seq = 0;
    }

    /// The packets captured so far (empty if capture was never enabled):
    /// the canonically-first `limit` transmissions, in canonical order.
    pub fn captured(&self) -> Vec<CaptureRecord> {
        if self.capture_limit.is_none() {
            return Vec::new();
        }
        let mut all: Vec<&(Tag, u64, CaptureRecord)> = self.capture.iter().collect();
        all.sort_by_key(|(tag, cs, _)| (*tag, *cs));
        all.into_iter().map(|(_, _, r)| r.clone()).collect()
    }

    /// Schedule an arbitrary scripted action (host joins a group, link
    /// fails, ...) at absolute time `at`. All scripts at tick `t` run (in
    /// scheduling order) before any node event at tick `t`.
    pub fn at(&mut self, at: SimTime, f: impl FnOnce(&mut World) + 'static) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.script_seq += 1;
        self.scripts.push(ScriptEntry {
            at,
            seq: self.script_seq,
            f: Box::new(f),
        });
    }

    /// Immutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the node is of a different type (a test bug, not a runtime
    /// condition).
    pub fn node<T: 'static>(&self, idx: NodeIdx) -> &T {
        self.nodes[idx.0]
            .as_ref()
            .expect("node is not mid-callback")
            .as_any()
            .downcast_ref()
            .expect("node type mismatch")
    }

    /// Mutable access to a node, downcast to its concrete type.
    pub fn node_mut<T: 'static>(&mut self, idx: NodeIdx) -> &mut T {
        self.nodes[idx.0]
            .as_mut()
            .expect("node is not mid-callback")
            .as_any_mut()
            .downcast_mut()
            .expect("node type mismatch")
    }

    /// Invoke a node's [`Node::on_timer`]-style entry from scripted events,
    /// giving scenario code a way to poke engines with full context. The
    /// dispatch's causal parent is the executing script, so everything a
    /// scripted poke sets in motion traces back to the script.
    pub fn call_node(&mut self, idx: NodeIdx, f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>)) {
        let cause = self.cur_script;
        self.dispatch(idx, EPOCH_EVENT, cause, f);
    }

    /// Deliver `on_start` to every node (idempotent; called automatically by
    /// the run methods). With telemetry attached, this is also where every
    /// node receives its [`telemetry::Telem`] handle.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        if let Some(stamp) = &self.stamp {
            for (i, node) in self.nodes.iter_mut().enumerate() {
                let sink: telemetry::SharedSink = Arc::clone(stamp) as telemetry::SharedSink;
                node.as_mut()
                    .expect("node is not mid-callback")
                    .set_telemetry(telemetry::Telem::attached(sink, i as u32));
            }
        }
        for i in 0..self.node_count() {
            self.dispatch(NodeIdx(i), EPOCH_START, None, |n, ctx| n.on_start(ctx));
        }
    }

    /// Pop and run the earliest script.
    fn run_script(&mut self) {
        let entry = self.scripts.pop().expect("no script to run");
        self.counters.record_dispatch();
        // The script's canonical identity: the causal root for the fault
        // marks it emits and the node calls it performs. Scripts execute
        // in (time, seq) order, which is exactly tag order.
        self.cur_script = Some(Tag {
            time: entry.at,
            epoch: EPOCH_SCRIPT,
            origin: 0,
            seq: entry.seq,
            emit: 0,
        });
        (entry.f)(self);
        self.cur_script = None;
    }

    /// Dispatch heap events due strictly before `bound`, at most `budget`
    /// heap pops (stale skips included). Returns the pops.
    fn run_events(&mut self, bound: SimTime, budget: usize) -> usize {
        let mut n = 0;
        while n < budget {
            match self.heap.peek() {
                Some(Reverse(due)) if due.time < bound => {}
                _ => break,
            }
            let Some(Reverse(due)) = self.heap.pop() else {
                break;
            };
            debug_assert!(due.time >= self.now, "time went backwards");
            self.now = due.time;
            n += 1;
            let slot = due.slot;
            // A generation mismatch or empty slot means the event was
            // cancelled (or the slot recycled after cancellation): skip
            // without dispatch.
            if self.events[slot].gen != due.gen || self.events[slot].ev.is_none() {
                self.counters.record_timer_skipped();
                if let Some(p) = &mut self.profile {
                    p.stale_events += 1;
                }
                continue;
            }
            let cause = self.events[slot].cause;
            let ev = self.vacate(slot);
            self.counters.record_dispatch();
            let t0 = self.profile.as_ref().map(|_| std::time::Instant::now());
            match ev {
                Event::Deliver {
                    node,
                    iface,
                    packet,
                    link,
                } => {
                    // In-flight packets to a node that crashed after
                    // transmit are discarded at its dead NIC.
                    if !self.node_up[node.0] {
                        self.counters.record_pkt_dropped_node_down();
                        continue;
                    }
                    let class = PacketClass::classify(&packet);
                    self.counters.record_rx(link, class, packet.len());
                    self.dispatch(node, EPOCH_EVENT, Some(cause), |nb, ctx| {
                        nb.on_packet(ctx, iface, &packet)
                    });
                    if let (Some(p), Some(t0)) = (&mut self.profile, t0) {
                        p.deliver_events += 1;
                        p.deliver_nanos += t0.elapsed().as_nanos() as u64;
                    }
                }
                Event::Timer { node, token } => {
                    // Belt-and-braces: crash_node cancels the node's
                    // timers eagerly, but a script could still arm one
                    // against a down node via call_node.
                    if !self.node_up[node.0] {
                        self.counters.record_timer_cancelled_node_down();
                        continue;
                    }
                    self.counters.record_timer_fired();
                    self.dispatch(node, EPOCH_EVENT, Some(cause), |nb, ctx| {
                        ctx.emit(node, || telemetry::Event::TimerFired { token });
                        nb.on_timer(ctx, token);
                    });
                    if let (Some(p), Some(t0)) = (&mut self.profile, t0) {
                        p.timer_events += 1;
                        p.timer_nanos += t0.elapsed().as_nanos() as u64;
                    }
                }
            }
        }
        n
    }

    /// Run scripts and events due at or before `until`, at most
    /// `max_events` of them. Scripts at a tick run before the tick's
    /// events. Returns the number processed (scripts plus heap pops,
    /// stale skips included).
    fn run(&mut self, until: SimTime, max_events: usize) -> usize {
        self.start();
        let end = SimTime(until.ticks().saturating_add(1));
        let mut n = 0;
        while n < max_events {
            let t_sc = self.scripts.peek().map(|s| s.at);
            let t_ev = self.heap.peek().map(|Reverse(due)| due.time);
            let Some(t) = t_ev.into_iter().chain(t_sc).min().filter(|&t| t <= until) else {
                break;
            };
            self.now = t;
            if t_sc == Some(t) {
                self.run_script();
                n += 1;
            } else {
                let bound = t_sc.map_or(end, |ts| ts.min(end));
                match self.run_events(bound, max_events - n) {
                    // Only events at the very end of time are left.
                    0 => break,
                    c => n += c,
                }
            }
        }
        n
    }

    /// Run until the event queue is empty or simulated time would exceed
    /// `until`. Returns the number of events processed (scripts plus
    /// heap pops, stale skips included).
    pub fn run_until(&mut self, until: SimTime) -> usize {
        let n = self.run(until, usize::MAX);
        // Advance the clock to the requested horizon even if idle.
        self.now = self.now.max(until);
        n
    }

    /// Run until the queue drains completely (only sensible when no node
    /// sets periodic timers), or until `max_events` as a runaway guard.
    pub fn run_to_idle(&mut self, max_events: usize) -> usize {
        self.run(SimTime(u64::MAX), max_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test node that echoes every packet back out the interface it came
    /// in on, decrementing the first byte as a TTL; records deliveries.
    struct Echo {
        received: Vec<(u64, IfaceId, Vec<u8>)>,
        timers: Vec<(u64, u64)>,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                received: Vec::new(),
                timers: Vec::new(),
            }
        }
    }

    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &[u8]) {
            self.received
                .push((ctx.now().ticks(), iface, packet.to_vec()));
            if let Some((&ttl, rest)) = packet.split_first() {
                if ttl > 0 {
                    let mut next = vec![ttl - 1];
                    next.extend_from_slice(rest);
                    ctx.send(iface, next);
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.timers.push((ctx.now().ticks(), token));
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Records deliveries and nothing else — no retransmission. The
    /// channel-model tests need this: corruption can flip a bit in the
    /// byte [`Echo`] treats as a TTL, and an echoing receiver would then
    /// amplify duplicated copies into an unbounded packet storm.
    #[derive(Default)]
    struct Quiet {
        received: Vec<(u64, IfaceId, Vec<u8>)>,
    }

    impl Node for Quiet {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &[u8]) {
            self.received
                .push((ctx.now().ticks(), iface, packet.to_vec()));
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn quiet_world() -> (World, NodeIdx, NodeIdx, LinkId) {
        let mut w = World::new(1);
        let a = w.add_node(Box::<Quiet>::default());
        let b = w.add_node(Box::<Quiet>::default());
        let (l, _, _) = w.add_p2p(a, b, Duration(3));
        (w, a, b, l)
    }

    fn two_node_world() -> (World, NodeIdx, NodeIdx, LinkId) {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Echo::new()));
        let b = w.add_node(Box::new(Echo::new()));
        let (l, _, _) = w.add_p2p(a, b, Duration(3));
        (w, a, b, l)
    }

    #[test]
    fn p2p_delivery_with_delay() {
        let (mut w, a, b, _) = two_node_world();
        w.at(SimTime(10), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 42]));
        });
        w.run_until(SimTime(100));
        let eb: &Echo = w.node(b);
        assert_eq!(eb.received.len(), 1);
        assert_eq!(eb.received[0].0, 13); // 10 + delay 3
        assert_eq!(eb.received[0].2, vec![0, 42]);
        // TTL 0: no echo back.
        let ea: &Echo = w.node(a);
        assert!(ea.received.is_empty());
    }

    #[test]
    fn ping_pong_until_ttl_exhausted() {
        let (mut w, a, b, _) = two_node_world();
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![5]));
        });
        w.run_until(SimTime(1000));
        let ea: &Echo = w.node(a);
        let eb: &Echo = w.node(b);
        // b receives ttl=5,3,1; a receives ttl=4,2,0.
        assert_eq!(eb.received.len(), 3);
        assert_eq!(ea.received.len(), 3);
        assert_eq!(ea.received.last().unwrap().2, vec![0]);
    }

    #[test]
    fn lan_broadcast_excludes_sender() {
        let mut w = World::new(1);
        let nodes: Vec<NodeIdx> = (0..4).map(|_| w.add_node(Box::new(Echo::new()))).collect();
        let (_, _ifaces) = w.add_lan(&nodes, Duration(1));
        let sender = nodes[2];
        w.at(SimTime(0), move |w| {
            w.call_node(sender, |_n, ctx| ctx.send(IfaceId(0), vec![0, 7]));
        });
        w.run_until(SimTime(10));
        for (i, &n) in nodes.iter().enumerate() {
            let e: &Echo = w.node(n);
            if n == sender {
                assert!(e.received.is_empty(), "sender must not hear itself");
            } else {
                assert_eq!(e.received.len(), 1, "node {i} missed the broadcast");
                assert_eq!(e.received[0].0, 1);
            }
        }
    }

    /// The LAN fan-out shares one `Arc` buffer across all receivers:
    /// every receiver must see the exact payload bytes, and a receiver
    /// re-sending a mutated copy (Echo decrements the TTL byte) must not
    /// disturb what the others saw.
    #[test]
    fn lan_fanout_delivers_identical_payload_bytes() {
        let mut w = World::new(1);
        let nodes: Vec<NodeIdx> = (0..4).map(|_| w.add_node(Box::new(Echo::new()))).collect();
        w.add_lan(&nodes, Duration(1));
        let sender = nodes[0];
        let payload = vec![1, 0xAB, 0xCD, 0xEF];
        let sent = payload.clone();
        w.at(SimTime(0), move |w| {
            w.call_node(sender, |_n, ctx| ctx.send(IfaceId(0), sent));
        });
        w.run_until(SimTime(10));
        for &n in &nodes[1..] {
            let e: &Echo = w.node(n);
            assert_eq!(e.received.len(), 3, "broadcast + two peer echoes");
            assert_eq!(e.received[0].2, payload, "original payload corrupted");
            // The peers' echoes arrive with the TTL byte decremented —
            // their mutation happened on private buffers.
            assert_eq!(e.received[1].2, vec![0, 0xAB, 0xCD, 0xEF]);
            assert_eq!(e.received[2].2, vec![0, 0xAB, 0xCD, 0xEF]);
        }
        let es: &Echo = w.node(sender);
        assert_eq!(es.received.len(), 3, "one echo per receiver");
        assert!(es.received.iter().all(|r| r.2 == [0, 0xAB, 0xCD, 0xEF]));
    }

    #[test]
    fn timers_fire_in_order() {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Echo::new()));
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                ctx.set_timer(Duration(10), 1);
                ctx.set_timer(Duration(5), 2);
                ctx.set_timer(Duration(10), 3); // same time as token 1: FIFO
            });
        });
        w.run_until(SimTime(100));
        let e: &Echo = w.node(a);
        assert_eq!(e.timers, vec![(5, 2), (10, 1), (10, 3)]);
    }

    #[test]
    fn cancelled_timer_is_skipped_and_counted_stale() {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Echo::new()));
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                let t1 = ctx.set_timer(Duration(10), 1);
                ctx.set_timer_at(SimTime(5), 2);
                assert!(ctx.cancel_timer(t1));
                assert!(!ctx.cancel_timer(t1), "double cancel must be a no-op");
            });
        });
        w.run_until(SimTime(100));
        let e: &Echo = w.node(a);
        assert_eq!(e.timers, vec![(5, 2)]);
        assert_eq!(w.counters().timers_fired(), 1);
        assert_eq!(w.counters().timers_skipped_stale(), 1);
    }

    #[test]
    fn stale_handle_cannot_cancel_recycled_slot() {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Echo::new()));
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                let t1 = ctx.set_timer(Duration(10), 1);
                assert!(ctx.cancel_timer(t1));
                // This reuses t1's arena slot under a new generation.
                ctx.set_timer(Duration(20), 2);
                assert!(
                    !ctx.cancel_timer(t1),
                    "generation must protect the slot's new tenant"
                );
            });
        });
        w.run_until(SimTime(100));
        let e: &Echo = w.node(a);
        assert_eq!(e.timers, vec![(20, 2)]);
    }

    #[test]
    fn set_timer_at_past_deadline_fires_now() {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Echo::new()));
        w.at(SimTime(7), move |w| {
            w.call_node(a, |_n, ctx| {
                ctx.set_timer_at(SimTime(3), 9); // already past: clamped to now
            });
        });
        w.run_until(SimTime(100));
        let e: &Echo = w.node(a);
        assert_eq!(e.timers, vec![(7, 9)]);
    }

    #[test]
    fn event_dispatch_counters() {
        let (mut w, a, _b, _l) = two_node_world();
        w.at(SimTime(10), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 42]));
        });
        w.run_until(SimTime(100));
        // One script + one delivery dispatched; no timers anywhere.
        assert_eq!(w.counters().events_dispatched(), 2);
        assert_eq!(w.counters().timers_fired(), 0);
        assert_eq!(w.counters().timers_skipped_stale(), 0);
        assert_eq!(w.counters().rx_pkts(), 1);
    }

    #[test]
    fn downed_link_drops_traffic() {
        let (mut w, a, b, l) = two_node_world();
        w.at(SimTime(0), move |w| w.set_link_up(l, false));
        w.at(SimTime(1), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![3]));
        });
        w.run_until(SimTime(50));
        let eb: &Echo = w.node(b);
        assert!(eb.received.is_empty());
    }

    #[test]
    fn lossy_link_drops_some() {
        let (mut w, a, _b, l) = two_node_world();
        w.set_link_loss(l, 0.5);
        for t in 0..200 {
            w.at(SimTime(t), move |w| {
                w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0]));
            });
        }
        w.run_until(SimTime(1000));
        let eb: &Echo = w.node(NodeIdx(1));
        assert!(
            eb.received.len() > 50,
            "lost too many: {}",
            eb.received.len()
        );
        assert!(
            eb.received.len() < 150,
            "lost too few: {}",
            eb.received.len()
        );
        assert!(w.counters().losses() > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let (mut w, a, _b, l) = two_node_world();
            w.set_link_loss(l, 0.3);
            for t in 0..50 {
                w.at(SimTime(t), move |w| {
                    w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, t as u8]));
                });
            }
            w.run_until(SimTime(500));
            // Drain rather than clone: the world is dropped right after,
            // so the copy was pure waste.
            let eb: &mut Echo = w.node_mut(NodeIdx(1));
            std::mem::take(&mut eb.received)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clock_advances_to_horizon_when_idle() {
        let (mut w, _a, _b, _l) = two_node_world();
        w.run_until(SimTime(123));
        assert_eq!(w.now(), SimTime(123));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_rejected() {
        let (mut w, _a, _b, _l) = two_node_world();
        w.run_until(SimTime(10));
        w.at(SimTime(5), |_| {});
    }

    #[test]
    fn crash_cancels_armed_timers() {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Echo::new()));
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                ctx.set_timer(Duration(10), 1);
                ctx.set_timer(Duration(20), 2);
            });
        });
        w.at(SimTime(5), move |w| w.crash_node(a));
        w.run_until(SimTime(100));
        let e: &Echo = w.node(a);
        assert!(e.timers.is_empty(), "no timer may fire on a dead node");
        assert_eq!(w.counters().timers_cancelled_node_down(), 2);
        assert_eq!(w.counters().timers_fired(), 0);
        assert!(!w.is_node_up(a));
    }

    #[test]
    fn down_node_drops_deliveries_and_restart_revives() {
        let (mut w, a, b, _l) = two_node_world();
        w.at(SimTime(0), move |w| w.crash_node(b));
        // Transmitted while b is down: dropped at the dead attachment.
        w.at(SimTime(1), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 1]));
        });
        w.at(SimTime(10), move |w| w.restart_node(b));
        // Transmitted after restart: delivered normally.
        w.at(SimTime(20), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 2]));
        });
        w.run_until(SimTime(100));
        let eb: &Echo = w.node(b);
        assert_eq!(eb.received.len(), 1, "only the post-restart packet");
        assert_eq!(eb.received[0].2, vec![0, 2]);
        assert_eq!(w.counters().pkts_dropped_node_down(), 1);
        assert!(w.is_node_up(b));
    }

    #[test]
    fn in_flight_packet_to_crashing_node_is_dropped() {
        // delay 3: send at t=0, crash at t=1, delivery due t=3 is discarded.
        let (mut w, a, b, _l) = two_node_world();
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 9]));
        });
        w.at(SimTime(1), move |w| w.crash_node(b));
        w.run_until(SimTime(100));
        let eb: &Echo = w.node(b);
        assert!(eb.received.is_empty());
        assert_eq!(w.counters().pkts_dropped_node_down(), 1);
    }

    #[test]
    fn channel_corruption_flips_one_bit_and_counts() {
        let (mut w, a, _b, l) = quiet_world();
        w.set_channel_model(
            l,
            ChannelModel {
                corrupt_pm: 1000, // always corrupt
                ..ChannelModel::CLEAN
            },
        );
        let payload = vec![0u8, 0xAA, 0xBB, 0xCC];
        let sent = payload.clone();
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), sent));
        });
        w.run_until(SimTime(50));
        let eb: &Quiet = w.node(NodeIdx(1));
        assert_eq!(eb.received.len(), 1, "corruption must not drop the packet");
        let got = &eb.received[0].2;
        assert_eq!(got.len(), payload.len());
        let diff: u32 = got
            .iter()
            .zip(&payload)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit flipped");
        assert_eq!(w.counters().pkts_corrupted(), 1);
    }

    #[test]
    fn channel_duplication_delivers_twice() {
        let (mut w, a, _b, l) = quiet_world();
        w.set_channel_model(
            l,
            ChannelModel {
                duplicate_pm: 1000,
                ..ChannelModel::CLEAN
            },
        );
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 7]));
        });
        w.run_until(SimTime(50));
        let eb: &Quiet = w.node(NodeIdx(1));
        assert_eq!(eb.received.len(), 2, "duplicate delivers two copies");
        assert_eq!(eb.received[0].2, eb.received[1].2);
        assert_eq!(w.counters().pkts_duplicated(), 1);
    }

    #[test]
    fn channel_reorder_delays_past_later_traffic() {
        let (mut w, a, _b, l) = quiet_world();
        w.set_channel_model(
            l,
            ChannelModel {
                reorder_pm: 1000,
                jitter: 100,
                ..ChannelModel::CLEAN
            },
        );
        // First packet is delayed by 1..=100 extra ticks; switch the
        // channel off before the second so it travels clean — the second
        // can overtake the first whenever the jitter draw exceeds 5.
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 1]));
        });
        w.at(SimTime(1), move |w| {
            w.set_channel_model(l, ChannelModel::CLEAN)
        });
        w.at(SimTime(5), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 2]));
        });
        w.run_until(SimTime(500));
        let eb: &Quiet = w.node(NodeIdx(1));
        assert_eq!(eb.received.len(), 2);
        assert_eq!(w.counters().pkts_reordered(), 1);
        // Delivery time of the jittered copy is strictly later than clean.
        assert!(eb.received.iter().any(|r| r.2 == [0, 1] && r.0 > 3));
    }

    #[test]
    fn clean_channel_consumes_no_randomness() {
        // Installing a CLEAN model must leave the trace identical to not
        // touching the channel at all (same RNG stream).
        let run = |install: bool| {
            let (mut w, a, _b, l) = quiet_world();
            w.set_link_loss(l, 0.3);
            if install {
                w.set_channel_model(l, ChannelModel::CLEAN);
            }
            for t in 0..50 {
                w.at(SimTime(t), move |w| {
                    w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, t as u8]));
                });
            }
            w.run_until(SimTime(500));
            let eb: &mut Quiet = w.node_mut(NodeIdx(1));
            std::mem::take(&mut eb.received)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn adversarial_channel_is_deterministic() {
        let run = || {
            let (mut w, a, _b, l) = quiet_world();
            w.set_channel_model(
                l,
                ChannelModel {
                    corrupt_pm: 300,
                    duplicate_pm: 300,
                    reorder_pm: 300,
                    jitter: 40,
                },
            );
            for t in 0..80 {
                w.at(SimTime(t * 3), move |w| {
                    w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, t as u8]));
                });
            }
            w.run_until(SimTime(2000));
            let stats = (
                w.counters().pkts_corrupted(),
                w.counters().pkts_duplicated(),
                w.counters().pkts_reordered(),
            );
            let eb: &mut Quiet = w.node_mut(NodeIdx(1));
            (std::mem::take(&mut eb.received), stats)
        };
        let (recv_a, stats_a) = run();
        let (recv_b, stats_b) = run();
        assert_eq!(recv_a, recv_b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.0 > 0 && stats_a.1 > 0 && stats_a.2 > 0);
    }

    #[test]
    fn decode_failure_accounting() {
        let (mut w, a, _b, _l) = two_node_world();
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                ctx.count_decode_failure(IfaceId(0), "checksum");
                ctx.count_decode_failure(IfaceId(0), "truncated");
            });
        });
        w.run_until(SimTime(10));
        assert_eq!(w.counters().decode_failures(a), 2);
        assert_eq!(w.counters().decode_failures(NodeIdx(1)), 0);
        assert_eq!(w.counters().total_decode_failures(), 2);
    }

    #[test]
    fn crash_and_restart_are_idempotent() {
        let (mut w, _a, b, _l) = two_node_world();
        w.at(SimTime(0), move |w| {
            w.crash_node(b);
            w.crash_node(b); // no-op
        });
        w.at(SimTime(5), move |w| {
            w.restart_node(b);
            w.restart_node(b); // no-op
        });
        w.run_until(SimTime(50));
        assert!(w.is_node_up(b));
    }

    // ---- Capacity-model tests ---------------------------------------

    /// A serialized packet that classifies as [`PacketClass::Data`]
    /// (raw unparseable test bytes classify as Control, which the
    /// priority class would bypass).
    fn data_pkt(len: usize) -> Vec<u8> {
        wire::ip::Header {
            proto: wire::ip::Protocol::Data,
            ttl: 8,
            src: wire::Addr::new(10, 0, 0, 1),
            dst: wire::Addr::new(239, 0, 0, 1),
        }
        .encap(&vec![0u8; len])
    }

    #[test]
    fn capacity_serialization_and_queueing_delay() {
        let (mut w, a, _b, l) = quiet_world();
        w.set_link_capacity(
            l,
            LinkCapacity {
                bytes_per_tick: 1,
                queue_bytes: 10_000,
                ecn_bytes: 0,
                ctrl_priority: true,
            },
        );
        let p1 = data_pkt(4);
        let p2 = data_pkt(4);
        let len = p1.len() as u64;
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                ctx.send(IfaceId(0), p1);
                ctx.send(IfaceId(0), p2);
            });
        });
        w.run_until(SimTime(1000));
        let eb: &Quiet = w.node(NodeIdx(1));
        assert_eq!(eb.received.len(), 2);
        // First packet: backlog = len, so delay 3 + len; second queues
        // behind it: delay 3 + 2*len. FIFO order is preserved.
        assert_eq!(eb.received[0].0, 3 + len);
        assert_eq!(eb.received[1].0, 3 + 2 * len);
        assert_eq!(w.counters().peak_queue_bytes(), 2 * len);
        assert_eq!(w.counters().queue_drops_data(), 0);
    }

    #[test]
    fn capacity_tail_drops_and_marks() {
        let (mut w, a, _b, l) = quiet_world();
        let unit = data_pkt(4).len() as u64;
        // Queue fits exactly two packets; ECN threshold crosses at the
        // second enqueue.
        w.set_link_capacity(
            l,
            LinkCapacity {
                bytes_per_tick: 1,
                queue_bytes: 2 * unit,
                ecn_bytes: unit,
                ctrl_priority: true,
            },
        );
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                for _ in 0..4 {
                    ctx.send(IfaceId(0), data_pkt(4));
                }
            });
        });
        w.run_until(SimTime(1000));
        let eb: &Quiet = w.node(NodeIdx(1));
        assert_eq!(eb.received.len(), 2, "third and fourth tail-dropped");
        let c = w.counters();
        assert_eq!(c.queue_drops_data(), 2);
        assert_eq!(c.queue_drops_ctrl(), 0);
        assert_eq!(c.ecn_marks(), 1, "second enqueue crossed the threshold");
        assert_eq!(c.peak_queue_bytes(), 2 * unit);
        assert_eq!(c.link(l).queue_cap_bytes, 2 * unit);
        // Tail-dropped packets never reached the wire: tx counts only
        // the two delivered packets.
        assert_eq!(c.total_data_pkts(), 2);
    }

    #[test]
    fn capacity_ctrl_priority_bypasses_full_queue() {
        // Raw unparseable bytes classify as Control. With priority on,
        // they sail past a saturated queue; with priority off, they
        // tail-drop like anything else — the starvation configuration.
        let unit = data_pkt(4).len() as u64;
        let run = |prio: bool| {
            let (mut w, a, _b, l) = quiet_world();
            w.set_link_capacity(
                l,
                LinkCapacity {
                    bytes_per_tick: 1,
                    // Exactly one data packet fills the queue.
                    queue_bytes: unit,
                    ecn_bytes: 0,
                    ctrl_priority: prio,
                },
            );
            w.at(SimTime(0), move |w| {
                w.call_node(a, |_n, ctx| {
                    // Saturate with data, then offer one control packet.
                    ctx.send(IfaceId(0), data_pkt(4));
                    ctx.send(IfaceId(0), vec![0xFF; 6]);
                });
            });
            w.run_until(SimTime(1000));
            let got = w.node::<Quiet>(NodeIdx(1)).received.len();
            (got, w.counters().queue_drops_ctrl())
        };
        let (got, starved) = run(true);
        assert_eq!(got, 2, "control bypasses the full queue");
        assert_eq!(starved, 0);
        let (got, starved) = run(false);
        assert_eq!(got, 1, "no priority: control starves behind data");
        assert_eq!(starved, 1);
    }

    #[test]
    fn capacity_disabled_consumes_no_randomness() {
        // Explicitly installing UNLIMITED must leave the trace identical
        // to never touching capacity at all (same RNG stream), exactly
        // like the CLEAN channel contract.
        let run = |install: bool| {
            let (mut w, a, _b, l) = quiet_world();
            w.set_link_loss(l, 0.3);
            if install {
                w.set_link_capacity(l, LinkCapacity::UNLIMITED);
            }
            for t in 0..50 {
                w.at(SimTime(t), move |w| {
                    w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, t as u8]));
                });
            }
            w.run_until(SimTime(500));
            let eb: &mut Quiet = w.node_mut(NodeIdx(1));
            std::mem::take(&mut eb.received)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn capacity_drains_backlog_over_time() {
        let (mut w, a, _b, l) = quiet_world();
        let unit = data_pkt(4).len() as u64;
        w.set_link_capacity(
            l,
            LinkCapacity {
                bytes_per_tick: 2,
                queue_bytes: 2 * unit,
                ecn_bytes: 0,
                ctrl_priority: true,
            },
        );
        // Fill the queue at t=0, then send again after it has fully
        // drained: no drop the second time.
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                ctx.send(IfaceId(0), data_pkt(4));
                ctx.send(IfaceId(0), data_pkt(4));
                ctx.send(IfaceId(0), data_pkt(4)); // dropped: queue full
            });
        });
        let late = SimTime(unit); // 2*unit bytes / 2 per tick = unit ticks
        w.at(late, move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), data_pkt(4)));
        });
        w.run_until(SimTime(1000));
        let eb: &Quiet = w.node(NodeIdx(1));
        assert_eq!(eb.received.len(), 3);
        assert_eq!(w.counters().queue_drops_data(), 1);
    }

    #[test]
    fn set_link_loss_clamps_out_of_range() {
        let (mut w, _a, _b, l) = quiet_world();
        w.set_link_loss(l, 1.5);
        assert_eq!(w.link(l).loss, 1.0);
        w.set_link_loss(l, -0.25);
        assert_eq!(w.link(l).loss, 0.0);
        w.set_link_loss(l, f64::NAN);
        assert_eq!(w.link(l).loss, 0.0);
        w.set_link_loss(l, 0.75);
        assert_eq!(w.link(l).loss, 0.75);
    }
}
