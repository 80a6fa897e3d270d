//! Structured protocol-event telemetry.
//!
//! The paper's evaluation (§1, §4) compares protocols by the state they
//! hold, the control messages they process, and the data packets they
//! forward. This crate provides the per-event observability layer that
//! makes those comparisons possible inside the simulator: a typed
//! [`Event`] stream emitted by netsim, the node adapter, and all three
//! protocol engines, consumed through the [`Sink`] trait.
//!
//! Three sinks ship with the crate:
//!
//! * [`FlightRecorder`] — a bounded per-node ring buffer of rendered
//!   events, dumped into replay artifacts when an oracle fires;
//! * [`JsonlSink`] — a JSON-lines writer keyed by deterministic sim
//!   time, whose byte stream doubles as the determinism fingerprint;
//! * [`MetricsAggregator`] — sim-time histograms of join latency,
//!   SPT-switchover time, and post-fault reconvergence time.
//!
//! # Determinism rules
//!
//! Telemetry *observes*; it never participates. Emitters consume no
//! randomness and take no behavioral branches on whether a sink is
//! attached, so packet traces are bit-identical with telemetry on or
//! off. Every event is keyed by deterministic sim time ([`Ticks`]) —
//! wall-clock time never appears in an event or a rendered line.
//!
//! # Zero overhead when disabled
//!
//! The [`Telem`] handle is an `Option` internally; [`Telem::emit`]
//! takes a closure so a disabled handle costs one branch and never
//! constructs the [`Event`].

#![warn(missing_docs)]

pub mod trace;

pub use trace::CausalIndex;

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

use wire::{Addr, Group, Message};

/// Simulator time in ticks.
///
/// This crate sits below `netsim` in the dependency graph (so the
/// protocol crates can use it without a cycle), so it cannot name
/// `netsim::SimTime`; emitters pass `SimTime.0` and sinks treat the
/// value as opaque ordered time.
pub type Ticks = u64;

/// The canonical identity of one simulator *dispatch* — the handling of
/// a single event (packet delivery, timer firing, scripted fault, or a
/// node's `on_start`). The fields mirror netsim's internal canonical
/// event key, derived from the dispatching node's own history and never
/// from a global insertion counter: the same dispatch has the same
/// `EventId` in every run of the same scenario.
///
/// Ordering is lexicographic `(time, epoch, origin, seq)` — exactly the
/// simulator's deterministic execution order — so "parent precedes
/// child" is checkable as plain `<` on ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    /// Sim time of the dispatch.
    pub time: Ticks,
    /// Scheduling epoch (0 = start-of-world, 1 = script, 2 = runtime).
    pub epoch: u8,
    /// Origin discriminator (node index + 1, or 0 for scripts).
    pub origin: u32,
    /// Per-origin dispatch sequence number.
    pub seq: u64,
}

impl EventId {
    /// Stable short rendering, e.g. `t240/e2/o3#17` — part of the
    /// causal-slice byte format pinned by the `trace why` goldens.
    pub fn render(&self) -> String {
        format!(
            "t{}/e{}/o{}#{}",
            self.time, self.epoch, self.origin, self.seq
        )
    }
}

/// Causal provenance of one emitted event: the dispatch it was emitted
/// from (`id`) and that dispatch's own cause — the dispatch that created
/// the event being handled (`None` for roots: `on_start` and scripted
/// faults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// The dispatch this event was emitted during.
    pub id: EventId,
    /// The dispatch that caused `id` to run, if any.
    pub cause: Option<EventId>,
}

/// Bit flags describing a multicast state entry, shared across all
/// three protocols so sinks can diff transitions uniformly.
///
/// PIM uses [`flags::WC`]/[`flags::RP`]/[`flags::SPT`] exactly as the
/// paper's join/prune entry bits; DVMRP expresses its negative cache
/// with [`flags::PRUNED`]; CBT expresses tree membership with
/// [`flags::ON_TREE`].
pub mod flags {
    /// Wildcard entry — PIM (*,G).
    pub const WC: u8 = 1;
    /// RP-bit — state toward the rendezvous point (also marks PIM
    /// negative cache entries).
    pub const RP: u8 = 2;
    /// SPT-bit — packets arriving on the shortest-path tree.
    pub const SPT: u8 = 4;
    /// DVMRP prune state: the entry's upstream has been pruned.
    pub const PRUNED: u8 = 8;
    /// CBT: this router is attached to the group's core-based tree.
    pub const ON_TREE: u8 = 16;

    /// Render a flag set as a stable short string, e.g. `WC|RP`.
    /// Empty sets render as `-`.
    pub fn render(f: u8) -> String {
        const NAMES: [(u8, &str); 5] = [
            (WC, "WC"),
            (RP, "RP"),
            (SPT, "SPT"),
            (PRUNED, "PRUNED"),
            (ON_TREE, "ON_TREE"),
        ];
        let mut out = String::new();
        for (bit, name) in NAMES {
            if f & bit != 0 {
                if !out.is_empty() {
                    out.push('|');
                }
                out.push_str(name);
            }
        }
        if out.is_empty() {
            out.push('-');
        }
        out
    }
}

/// The key of a multicast routing entry: the shared tree or a source.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EntryKey {
    /// The shared (*,G) entry.
    Star,
    /// A source-specific (S,G) entry.
    Source(Addr),
}

impl fmt::Display for EntryKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryKey::Star => write!(f, "*"),
            EntryKey::Source(s) => write!(f, "{s}"),
        }
    }
}

/// One structured protocol event, keyed by the emitting node and sim
/// time at the [`Sink`] boundary (see [`Sink::event`]).
///
/// The taxonomy covers every transition class the paper's evaluation
/// reasons about: entry lifecycle with flag deltas, timers, control
/// traffic, local membership, elections, RP failover, SPT switchover,
/// and unicast route change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A (*,G) or (S,G) entry was created with the given flags.
    EntryCreated {
        /// Group the entry belongs to.
        group: Group,
        /// Shared-tree or source key.
        key: EntryKey,
        /// Initial [`flags`] bit set.
        flags: u8,
    },
    /// An entry's flag bits changed (e.g. SPT-bit set, prune installed).
    EntryModified {
        /// Group the entry belongs to.
        group: Group,
        /// Shared-tree or source key.
        key: EntryKey,
        /// Flag bits before the transition.
        from: u8,
        /// Flag bits after the transition.
        to: u8,
    },
    /// An entry timed out or was deleted.
    EntryExpired {
        /// Group the entry belonged to.
        group: Group,
        /// Shared-tree or source key.
        key: EntryKey,
    },
    /// A timer was armed for `deadline`.
    TimerArmed {
        /// Node-local timer token.
        token: u64,
        /// Absolute sim-time deadline.
        deadline: Ticks,
    },
    /// A live timer fired.
    TimerFired {
        /// Node-local timer token.
        token: u64,
    },
    /// A pending timer was cancelled before firing.
    TimerCancelled {
        /// Node-local timer token.
        token: u64,
    },
    /// A control message was sent (join/prune, register, graft, hello…).
    CtrlSend {
        /// Stable message-kind name from [`message_kind`].
        kind: &'static str,
        /// Destination address.
        dst: Addr,
    },
    /// A control message was received and decoded.
    CtrlRecv {
        /// Stable message-kind name from [`message_kind`].
        kind: &'static str,
        /// Source address.
        src: Addr,
    },
    /// Multicast data was delivered to local group members.
    DataDelivered {
        /// Destination group.
        group: Group,
        /// Original data source.
        source: Addr,
    },
    /// IGMP reported a first local member for `group`.
    LocalMemberJoined {
        /// The joined group.
        group: Group,
    },
    /// IGMP reported the last local member of `group` expired.
    LocalMemberLeft {
        /// The departed group.
        group: Group,
    },
    /// This router's designated-router status on an interface changed.
    DrChanged {
        /// Interface index.
        iface: u32,
        /// Whether this router is now the DR.
        is_dr: bool,
    },
    /// This router's IGMP querier status on an interface changed.
    QuerierChanged {
        /// Interface index.
        iface: u32,
        /// Whether this router is now the querier.
        is_querier: bool,
    },
    /// The group's reachable RP changed (paper §3.3: RP failure).
    RpFailover {
        /// The affected group.
        group: Group,
        /// Previous RP.
        from: Addr,
        /// Newly selected RP.
        to: Addr,
    },
    /// A receiver-side switch from shared tree to source SPT began.
    SptSwitchStart {
        /// The affected group.
        group: Group,
        /// The source being switched to.
        source: Addr,
    },
    /// The unicast RIB's route toward `dst` changed.
    RouteChanged {
        /// Route destination.
        dst: Addr,
    },
    /// An injected fault (scenario schedules mark these so sinks can
    /// measure post-fault reconvergence).
    Fault {
        /// Human-readable fault description, e.g. `crash r2`.
        desc: String,
    },
    /// A received payload failed to decode and was dropped (adversarial
    /// channel accounting; never opens a reconvergence window).
    DecodeFailed {
        /// Stable [`wire::DecodeError::kind`] label, e.g. `checksum`.
        kind: &'static str,
        /// Ingress interface the undecodable payload arrived on.
        iface: u32,
    },
    /// The channel model impaired a packet copy in flight (corrupted,
    /// duplicated, or delayed out of order). A per-packet mark, distinct
    /// from [`Event::Fault`] so it never opens a reconvergence window.
    ChannelImpaired {
        /// What happened: `corrupt`, `duplicate`, or `reorder`.
        what: &'static str,
        /// The link the impairment occurred on.
        link: u32,
    },
    /// The capacity model tail-dropped a packet at a full transmit
    /// queue. Per-packet congestion noise like [`Event::ChannelImpaired`]
    /// — never opens a reconvergence window.
    QueueDrop {
        /// Dropped packet's class: `data` or `ctrl`.
        what: &'static str,
        /// The congested link.
        link: u32,
    },
    /// The capacity model counted an ECN-style congestion mark (an
    /// enqueue crossed the link's marking threshold).
    EcnMark {
        /// The congested link.
        link: u32,
    },
    /// A transmit-queue backlog reached a new per-direction peak
    /// power-of-2 bucket. Rate-limited by construction — at most 64
    /// events per link direction however long the overload lasts — so
    /// the telemetry stream stays bounded and deterministic.
    QueueDepth {
        /// The congested link.
        link: u32,
        /// The backlog, in bytes, at the new peak.
        bytes: u64,
    },
}

impl Event {
    /// Stable single-line text rendering (used by the flight recorder
    /// and replay artifacts; changing it invalidates recorded dumps).
    pub fn render(&self) -> String {
        match self {
            Event::EntryCreated {
                group,
                key,
                flags: f,
            } => {
                format!("entry-created ({key},{group}) flags={}", flags::render(*f))
            }
            Event::EntryModified {
                group,
                key,
                from,
                to,
            } => format!(
                "entry-modified ({key},{group}) {}->{}",
                flags::render(*from),
                flags::render(*to)
            ),
            Event::EntryExpired { group, key } => format!("entry-expired ({key},{group})"),
            Event::TimerArmed { token, deadline } => {
                format!("timer-armed token={token} deadline={deadline}")
            }
            Event::TimerFired { token } => format!("timer-fired token={token}"),
            Event::TimerCancelled { token } => format!("timer-cancelled token={token}"),
            Event::CtrlSend { kind, dst } => format!("ctrl-send {kind} dst={dst}"),
            Event::CtrlRecv { kind, src } => format!("ctrl-recv {kind} src={src}"),
            Event::DataDelivered { group, source } => {
                format!("data-delivered group={group} source={source}")
            }
            Event::LocalMemberJoined { group } => format!("member-joined group={group}"),
            Event::LocalMemberLeft { group } => format!("member-left group={group}"),
            Event::DrChanged { iface, is_dr } => format!("dr-changed iface={iface} is_dr={is_dr}"),
            Event::QuerierChanged { iface, is_querier } => {
                format!("querier-changed iface={iface} is_querier={is_querier}")
            }
            Event::RpFailover { group, from, to } => {
                format!("rp-failover group={group} from={from} to={to}")
            }
            Event::SptSwitchStart { group, source } => {
                format!("spt-switch-start group={group} source={source}")
            }
            Event::RouteChanged { dst } => format!("route-changed dst={dst}"),
            Event::Fault { desc } => format!("fault {desc}"),
            Event::DecodeFailed { kind, iface } => {
                format!("decode-failed kind={kind} iface={iface}")
            }
            Event::ChannelImpaired { what, link } => format!("channel {what} link={link}"),
            Event::QueueDrop { what, link } => format!("queue-drop {what} link={link}"),
            Event::EcnMark { link } => format!("ecn-mark link={link}"),
            Event::QueueDepth { link, bytes } => format!("queue-depth link={link} bytes={bytes}"),
        }
    }

    /// The event's stable kind tag, used as the JSON `ev` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::EntryCreated { .. } => "entry_created",
            Event::EntryModified { .. } => "entry_modified",
            Event::EntryExpired { .. } => "entry_expired",
            Event::TimerArmed { .. } => "timer_armed",
            Event::TimerFired { .. } => "timer_fired",
            Event::TimerCancelled { .. } => "timer_cancelled",
            Event::CtrlSend { .. } => "ctrl_send",
            Event::CtrlRecv { .. } => "ctrl_recv",
            Event::DataDelivered { .. } => "data_delivered",
            Event::LocalMemberJoined { .. } => "member_joined",
            Event::LocalMemberLeft { .. } => "member_left",
            Event::DrChanged { .. } => "dr_changed",
            Event::QuerierChanged { .. } => "querier_changed",
            Event::RpFailover { .. } => "rp_failover",
            Event::SptSwitchStart { .. } => "spt_switch_start",
            Event::RouteChanged { .. } => "route_changed",
            Event::Fault { .. } => "fault",
            Event::DecodeFailed { .. } => "decode_failed",
            Event::ChannelImpaired { .. } => "channel_impaired",
            Event::QueueDrop { .. } => "queue_drop",
            Event::EcnMark { .. } => "ecn_mark",
            Event::QueueDepth { .. } => "queue_depth",
        }
    }

    /// Render as one JSON object (no trailing newline). Hand-rolled —
    /// the workspace builds offline with no serde — but every field is
    /// either numeric, a dotted-quad, or an escaped string, so the
    /// output is valid JSON.
    pub fn to_json(&self, node: u32, at: Ticks) -> String {
        let mut s = format!("{{\"t\":{at},\"node\":{node},\"ev\":\"{}\"", self.kind());
        match self {
            Event::EntryCreated {
                group,
                key,
                flags: f,
            } => {
                s.push_str(&format!(
                    ",\"group\":\"{group}\",\"key\":\"{key}\",\"flags\":\"{}\"",
                    flags::render(*f)
                ));
            }
            Event::EntryModified {
                group,
                key,
                from,
                to,
            } => {
                s.push_str(&format!(
                    ",\"group\":\"{group}\",\"key\":\"{key}\",\"from\":\"{}\",\"to\":\"{}\"",
                    flags::render(*from),
                    flags::render(*to)
                ));
            }
            Event::EntryExpired { group, key } => {
                s.push_str(&format!(",\"group\":\"{group}\",\"key\":\"{key}\""));
            }
            Event::TimerArmed { token, deadline } => {
                s.push_str(&format!(",\"token\":{token},\"deadline\":{deadline}"));
            }
            Event::TimerFired { token } | Event::TimerCancelled { token } => {
                s.push_str(&format!(",\"token\":{token}"));
            }
            Event::CtrlSend { kind, dst } => {
                s.push_str(&format!(",\"kind\":\"{kind}\",\"dst\":\"{dst}\""));
            }
            Event::CtrlRecv { kind, src } => {
                s.push_str(&format!(",\"kind\":\"{kind}\",\"src\":\"{src}\""));
            }
            Event::DataDelivered { group, source } => {
                s.push_str(&format!(",\"group\":\"{group}\",\"source\":\"{source}\""));
            }
            Event::LocalMemberJoined { group } | Event::LocalMemberLeft { group } => {
                s.push_str(&format!(",\"group\":\"{group}\""));
            }
            Event::DrChanged { iface, is_dr } => {
                s.push_str(&format!(",\"iface\":{iface},\"is_dr\":{is_dr}"));
            }
            Event::QuerierChanged { iface, is_querier } => {
                s.push_str(&format!(",\"iface\":{iface},\"is_querier\":{is_querier}"));
            }
            Event::RpFailover { group, from, to } => {
                s.push_str(&format!(
                    ",\"group\":\"{group}\",\"from\":\"{from}\",\"to\":\"{to}\""
                ));
            }
            Event::SptSwitchStart { group, source } => {
                s.push_str(&format!(",\"group\":\"{group}\",\"source\":\"{source}\""));
            }
            Event::RouteChanged { dst } => {
                s.push_str(&format!(",\"dst\":\"{dst}\""));
            }
            Event::Fault { desc } => {
                s.push_str(",\"desc\":\"");
                for c in desc.chars() {
                    match c {
                        '"' => s.push_str("\\\""),
                        '\\' => s.push_str("\\\\"),
                        '\n' => s.push_str("\\n"),
                        c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
                        c => s.push(c),
                    }
                }
                s.push('"');
            }
            Event::DecodeFailed { kind, iface } => {
                s.push_str(&format!(",\"kind\":\"{kind}\",\"iface\":{iface}"));
            }
            Event::ChannelImpaired { what, link } | Event::QueueDrop { what, link } => {
                s.push_str(&format!(",\"what\":\"{what}\",\"link\":{link}"));
            }
            Event::EcnMark { link } => {
                s.push_str(&format!(",\"link\":{link}"));
            }
            Event::QueueDepth { link, bytes } => {
                s.push_str(&format!(",\"link\":{link},\"bytes\":{bytes}"));
            }
        }
        s.push('}');
        s
    }
}

/// The stable short name of a wire message, used by the `CtrlSend` /
/// `CtrlRecv` events. One name per [`Message`] variant.
pub fn message_kind(msg: &Message) -> &'static str {
    match msg {
        Message::HostQuery(_) => "igmp-query",
        Message::HostReport(_) => "igmp-report",
        Message::RpMapping(_) => "rp-mapping",
        Message::PimQuery(_) => "pim-query",
        Message::PimRegister(_) => "pim-register",
        Message::PimJoinPrune(_) => "pim-join-prune",
        Message::PimRpReachability(_) => "pim-rp-reachability",
        Message::DvmrpProbe(_) => "dvmrp-probe",
        Message::DvmrpPrune(_) => "dvmrp-prune",
        Message::DvmrpGraft(_) => "dvmrp-graft",
        Message::DvmrpGraftAck(_) => "dvmrp-graft-ack",
        Message::CbtJoinRequest(_) => "cbt-join",
        Message::CbtJoinAck(_) => "cbt-join-ack",
        Message::CbtEcho(_) => "cbt-echo",
        Message::CbtEchoReply(_) => "cbt-echo-reply",
        Message::CbtQuit(_) => "cbt-quit",
        Message::CbtFlushTree(_) => "cbt-flush",
        Message::DvUpdate(_) => "dv-update",
        Message::Lsa(_) => "lsa",
        Message::Hello(_) => "hello",
    }
}

/// A consumer of structured events.
///
/// Sinks receive every event with the emitting node index and the sim
/// time of emission. Implementations must be order-preserving and must
/// not feed anything back into the simulation.
pub trait Sink {
    /// Consume one event emitted by `node` at sim time `at`.
    fn event(&mut self, node: u32, at: Ticks, ev: &Event);

    /// Consume one event with causal provenance attached. The default
    /// forwards to [`Sink::event`], so provenance-blind sinks (JSONL,
    /// flight recorder, metrics, coverage) see the identical stream they
    /// always did — byte-for-byte, which keeps committed replay
    /// fingerprints valid.
    fn event_caused(&mut self, node: u32, at: Ticks, ev: &Event, _prov: Provenance) {
        self.event(node, at, ev);
    }

    /// Observe one dispatch in the causal DAG: `id` ran because `cause`
    /// created the event it handled (`None` for roots). Delivered for
    /// *every* dispatch — including silent ones that emit no events, so
    /// backward slices never have holes where a hop merely forwarded
    /// data. Default is a no-op.
    fn link(&mut self, _id: EventId, _cause: Option<EventId>) {}
}

/// The shared handle every emitter clones: a thread-safe, shareable
/// sink. A world runs on one thread, so the mutex is uncontended;
/// `Send` lets a sink be built and read on whichever thread a trial
/// fan-out (`par::run_trials`) runs the world on.
pub type SharedSink = Arc<Mutex<dyn Sink + Send>>;

/// A shareable handle to a [`Sink`], cloned into every emitter.
///
/// `Telem::default()` is the disabled handle: [`Telem::emit`] reduces
/// to a single `None` branch and the event-constructing closure is
/// never called — the zero-overhead-when-disabled contract.
#[derive(Clone, Default)]
pub struct Telem {
    inner: Option<(SharedSink, u32)>,
}

impl fmt::Debug for Telem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some((_, node)) => write!(f, "Telem(node {node})"),
            None => write!(f, "Telem(disabled)"),
        }
    }
}

impl Telem {
    /// An enabled handle delivering events from `node` into `sink`.
    pub fn attached(sink: SharedSink, node: u32) -> Telem {
        Telem {
            inner: Some((sink, node)),
        }
    }

    /// The disabled handle (same as `Telem::default()`).
    pub fn disabled() -> Telem {
        Telem::default()
    }

    /// Whether a sink is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit an event at sim time `at`. The closure runs only when a
    /// sink is attached, so disabled emission never allocates or
    /// formats anything.
    #[inline]
    pub fn emit(&self, at: Ticks, f: impl FnOnce() -> Event) {
        if let Some((sink, node)) = &self.inner {
            let ev = f();
            sink.lock().expect("sink poisoned").event(*node, at, &ev);
        }
    }

    /// A handle on the same sink re-keyed to another node index (the
    /// world clones one handle per node).
    pub fn for_node(&self, node: u32) -> Telem {
        Telem {
            inner: self
                .inner
                .as_ref()
                .map(|(sink, _)| (Arc::clone(sink), node)),
        }
    }
}

/// A bounded per-node ring buffer of rendered events — the flight
/// recorder dumped into replay artifacts when an oracle fires.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    cap: usize,
    rings: BTreeMap<u32, VecDeque<String>>,
}

/// Default per-node flight-recorder capacity.
pub const FLIGHT_RECORDER_CAP: usize = 256;

impl FlightRecorder {
    /// A recorder keeping the last `cap` events per node.
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap: cap.max(1),
            rings: BTreeMap::new(),
        }
    }

    /// The last recorded events of `node`, oldest first, each line
    /// formatted `t<ticks> <event>`.
    pub fn dump(&self, node: u32) -> Vec<String> {
        self.rings
            .get(&node)
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Node indices that have recorded at least one event.
    pub fn nodes(&self) -> Vec<u32> {
        self.rings.keys().copied().collect()
    }
}

impl Sink for FlightRecorder {
    fn event(&mut self, node: u32, at: Ticks, ev: &Event) {
        let ring = self.rings.entry(node).or_default();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(format!("t{at} {}", ev.render()));
    }
}

/// A JSON-lines event writer. One object per line, keyed by sim time.
///
/// With `W = Vec<u8>` the accumulated bytes *are* the deterministic
/// event stream: the scenario replay test asserts byte-identity of two
/// runs' buffers.
#[derive(Debug, Default)]
pub struct JsonlSink<W: Write> {
    out: W,
    /// Write-error count; sinks must never panic mid-simulation.
    pub errors: u64,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing JSONL to `out`.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink { out, errors: 0 }
    }

    /// Consume the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// The writer, for in-place inspection (e.g. a `Vec<u8>` buffer).
    pub fn get_ref(&self) -> &W {
        &self.out
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn event(&mut self, node: u32, at: Ticks, ev: &Event) {
        let line = ev.to_json(node, at);
        if writeln!(self.out, "{line}").is_err() {
            self.errors += 1;
        }
    }
}

/// Exact percentile of an unsorted sample set by the nearest-rank
/// method (`p` in `[0, 100]`); zero when empty. Shared by
/// [`Histogram::percentile`] and consumers that pool raw samples across
/// many runs (the explorer's chaos summary).
pub fn percentile_of(samples: &[Ticks], p: f64) -> Ticks {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted: Vec<Ticks> = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A power-of-two-bucketed histogram of sim-time durations.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` ticks (bucket 0 also
/// takes zero). Log-scale because convergence times span from one-tick
/// LAN overrides to multi-hundred-tick timeout recoveries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: Ticks,
    samples: Vec<Ticks>,
}

impl Histogram {
    /// Record one duration sample.
    pub fn record(&mut self, d: Ticks) {
        let idx = (Ticks::BITS - d.leading_zeros()).saturating_sub(1) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += u128::from(d);
        self.max = self.max.max(d);
        self.samples.push(d);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample, zero when empty.
    pub fn mean(&self) -> Ticks {
        if self.count == 0 {
            0
        } else {
            (self.sum / u128::from(self.count)) as Ticks
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> Ticks {
        self.max
    }

    /// The raw samples, in recording order. Log2 buckets summarize the
    /// shape; exact percentile reporting needs the originals.
    pub fn samples(&self) -> &[Ticks] {
        &self.samples
    }

    /// Exact percentile by the nearest-rank method (`p` in `[0, 100]`);
    /// zero when empty. `percentile(50)` is the median, `percentile(100)`
    /// equals [`Histogram::max`].
    pub fn percentile(&self, p: f64) -> Ticks {
        percentile_of(&self.samples, p)
    }

    /// Render as `count=N mean=M max=X buckets=[..]`.
    pub fn render(&self) -> String {
        format!(
            "count={} mean={} max={} buckets={:?}",
            self.count,
            self.mean(),
            self.max,
            self.buckets
        )
    }
}

/// Aggregates convergence metrics from the event stream:
///
/// * **join latency** — first local member join of (node, group) to
///   first data delivery there;
/// * **SPT-switchover time** — [`Event::SptSwitchStart`] to the
///   (S,G) entry gaining the SPT bit on the same node;
/// * **reconvergence time** — each [`Event::Fault`] to the last
///   protocol state change anywhere (closed by [`MetricsAggregator::finish`]).
#[derive(Debug, Default)]
pub struct MetricsAggregator {
    /// Join-latency histogram (ticks from member-join to first delivery).
    pub join_latency: Histogram,
    /// SPT-switchover histogram (ticks from switch start to SPT bit set).
    pub spt_switch: Histogram,
    /// Post-fault reconvergence histogram (ticks from fault to last
    /// state change before quiescence).
    pub reconvergence: Histogram,
    /// Transmit-queue peak-depth samples in bytes (one per
    /// [`Event::QueueDepth`], i.e. per new per-direction peak bucket) —
    /// the p50/p99 source for the EXPERIMENTS congestion tables.
    pub queue_depth: Histogram,
    /// Capacity-model tail drops observed (both classes).
    pub queue_drops: u64,
    /// ECN-style congestion marks observed.
    pub ecn_marks: u64,
    pending_joins: BTreeMap<(u32, u32), Ticks>,
    pending_spt: BTreeMap<(u32, u32, u32), Ticks>,
    open_fault: Option<Ticks>,
    last_state_change: Option<Ticks>,
}

impl MetricsAggregator {
    /// A fresh aggregator.
    pub fn new() -> MetricsAggregator {
        MetricsAggregator::default()
    }

    /// Close the open post-fault window (call once after the run; the
    /// final fault's reconvergence time is unknown until quiescence).
    pub fn finish(&mut self) {
        if let (Some(f), Some(last)) = (self.open_fault.take(), self.last_state_change) {
            if last >= f {
                self.reconvergence.record(last - f);
            }
        }
    }

    /// Render the three histograms as stable text, one per line.
    pub fn render(&self) -> String {
        format!(
            "join_latency {}\nspt_switch {}\nreconvergence {}",
            self.join_latency.render(),
            self.spt_switch.render(),
            self.reconvergence.render()
        )
    }

    fn state_changed(&mut self, at: Ticks) {
        self.last_state_change = Some(at);
    }
}

impl Sink for MetricsAggregator {
    fn event(&mut self, node: u32, at: Ticks, ev: &Event) {
        match ev {
            Event::LocalMemberJoined { group } => {
                self.pending_joins
                    .entry((node, group.addr().0))
                    .or_insert(at);
                self.state_changed(at);
            }
            Event::DataDelivered { group, .. } => {
                if let Some(t0) = self.pending_joins.remove(&(node, group.addr().0)) {
                    self.join_latency.record(at - t0);
                }
            }
            Event::SptSwitchStart { group, source } => {
                self.pending_spt
                    .entry((node, group.addr().0, source.0))
                    .or_insert(at);
                self.state_changed(at);
            }
            Event::EntryModified {
                group,
                key,
                from,
                to,
            } => {
                if to & flags::SPT != 0 && from & flags::SPT == 0 {
                    if let EntryKey::Source(s) = key {
                        if let Some(t0) = self.pending_spt.remove(&(node, group.addr().0, s.0)) {
                            self.spt_switch.record(at - t0);
                        }
                    }
                }
                self.state_changed(at);
            }
            Event::EntryCreated { .. }
            | Event::EntryExpired { .. }
            | Event::RpFailover { .. }
            | Event::RouteChanged { .. }
            | Event::DrChanged { .. }
            | Event::QuerierChanged { .. }
            | Event::LocalMemberLeft { .. } => self.state_changed(at),
            Event::Fault { .. } => {
                if let (Some(f), Some(last)) = (self.open_fault, self.last_state_change) {
                    if last >= f {
                        self.reconvergence.record(last - f);
                    }
                }
                self.open_fault = Some(at);
                self.last_state_change = Some(at);
            }
            // Congestion marks are per-packet noise too, but worth
            // aggregating: queue-depth peaks feed the p50/p99 tables and
            // the drop/mark totals cross-check the counters. Still never
            // a state change — congestion must not open or extend a
            // reconvergence window.
            Event::QueueDepth { bytes, .. } => self.queue_depth.record(*bytes),
            Event::QueueDrop { .. } => self.queue_drops += 1,
            Event::EcnMark { .. } => self.ecn_marks += 1,
            // Channel impairments and decode-failure drops are per-packet
            // noise, not protocol state changes: they must neither open
            // reconvergence windows (only `Fault` does) nor extend one.
            Event::TimerArmed { .. }
            | Event::TimerFired { .. }
            | Event::TimerCancelled { .. }
            | Event::CtrlSend { .. }
            | Event::CtrlRecv { .. }
            | Event::DecodeFailed { .. }
            | Event::ChannelImpaired { .. } => {}
        }
    }
}

/// Fans one event stream out to several child sinks in order.
///
/// Callers keep concrete `Arc<Mutex<…>>` clones of the children to
/// read results after the run (an `Arc<Mutex<FlightRecorder>>`
/// coerces to [`SharedSink`] when pushed here).
#[derive(Clone, Default)]
pub struct Fanout {
    children: Vec<SharedSink>,
}

impl fmt::Debug for Fanout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fanout({} children)", self.children.len())
    }
}

impl Fanout {
    /// An empty fanout.
    pub fn new() -> Fanout {
        Fanout::default()
    }

    /// Append a child sink.
    pub fn push(&mut self, child: SharedSink) {
        self.children.push(child);
    }
}

impl Sink for Fanout {
    fn event(&mut self, node: u32, at: Ticks, ev: &Event) {
        for child in &self.children {
            child.lock().expect("sink poisoned").event(node, at, ev);
        }
    }

    fn event_caused(&mut self, node: u32, at: Ticks, ev: &Event, prov: Provenance) {
        for child in &self.children {
            child
                .lock()
                .expect("sink poisoned")
                .event_caused(node, at, ev, prov);
        }
    }

    fn link(&mut self, id: EventId, cause: Option<EventId>) {
        for child in &self.children {
            child.lock().expect("sink poisoned").link(id, cause);
        }
    }
}

// ---------------------------------------------------------------------
// Coverage: folding the event stream into a feedback signal
// ---------------------------------------------------------------------

/// FNV-1a over raw bytes — the stable hash every coverage feature and
/// the coverage-map digest are built from. Implemented locally (not
/// `DefaultHasher`) so feature ids and map hashes are stable across
/// Rust releases: committed corpus artifacts and the search corpus
/// outlive any one toolchain.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Derive a stable coverage-feature id from a class label and its
/// numeric parts. Same inputs → same id, on every platform, forever.
pub fn feature(class: &str, parts: &[u64]) -> u64 {
    let mut h = fnv1a(class.as_bytes(), FNV_OFFSET);
    for p in parts {
        h = fnv1a(&p.to_le_bytes(), h);
    }
    h
}

/// Stable hash of a short string (event-kind tags, oracle names) for
/// use as a [`feature`] part.
pub fn strpart(s: &str) -> u64 {
    fnv1a(s.as_bytes(), FNV_OFFSET)
}

/// A coverage map: distinct features with AFL-style log2-bucketed hit
/// counts. The map is a *set-with-magnitudes*, not a sequence — merging
/// is associative and order-independent, so per-protocol maps folded in
/// any order produce the identical map.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoverageMap {
    features: BTreeMap<u64, u64>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Record one hit of `feature`.
    pub fn record(&mut self, feature: u64) {
        *self.features.entry(feature).or_default() += 1;
    }

    /// Number of distinct features seen.
    pub fn distinct(&self) -> usize {
        self.features.len()
    }

    /// Total hits across all features.
    pub fn total(&self) -> u64 {
        self.features.values().sum()
    }

    /// Whether `feature` has been seen.
    pub fn contains(&self, feature: u64) -> bool {
        self.features.contains_key(&feature)
    }

    /// Features in `self` that `base` has never seen — the novelty
    /// signal coverage-guided search prioritizes on.
    pub fn novel_vs(&self, base: &CoverageMap) -> usize {
        self.features.keys().filter(|f| !base.contains(**f)).count()
    }

    /// Merge `other` into `self` (associative, order-independent).
    pub fn merge(&mut self, other: &CoverageMap) {
        for (f, n) in &other.features {
            *self.features.entry(*f).or_default() += n;
        }
    }

    /// The log2 hit bucket of a count (AFL-style): 1, 2, 3–4, 5–8, …
    /// Coverage treats "hit 7 times" and "hit 8 times" as the same
    /// signal but "once" vs "many" as different ones.
    pub fn bucket(n: u64) -> u32 {
        64 - n.leading_zeros()
    }

    /// Iterate the `(feature, hit-count)` pairs, in feature order.
    /// Consumers that accumulate bucketed coverage across many runs
    /// (the search loop's `(feature, bucket)` entry set) fold from
    /// here.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.features.iter().map(|(f, n)| (*f, *n))
    }

    /// Stable digest over the sorted `(feature, hit-bucket)` pairs.
    /// Byte-identical event streams yield the identical hash — the
    /// simulator's determinism contract extends to coverage.
    pub fn stable_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (f, n) in &self.features {
            h = fnv1a(&f.to_le_bytes(), h);
            h = fnv1a(&CoverageMap::bucket(*n).to_le_bytes(), h);
        }
        h
    }
}

/// A [`Sink`] folding the event stream into a [`CoverageMap`] — the
/// feedback signal behind coverage-guided schedule search.
///
/// Features, all derived with the stable [`feature`] hash:
///
/// * **entry-flag transitions** — per node and entry-key class, the
///   `(from, to)` flag-bit deltas of `EntryCreated` / `EntryModified` /
///   `EntryExpired` (WC/RP/SPT/PRUNED/ON_TREE — the paper's own state
///   taxonomy);
/// * **event-kind digrams** — per node, each consecutive
///   `(previous kind, kind)` pair; timer arm/fire/cancel events are
///   kinds too, so distinct timer interleavings are distinct features;
/// * **control-message kinds** sent and received per node, decode
///   failures by kind, channel impairments by kind and link, and data
///   deliveries per node.
///
/// The optional `tag` is mixed into every feature so streams from
/// different contexts (e.g. different protocols under one search run)
/// never collide. The sink observes only — attaching it is invisible
/// to the packet trace, like every other sink.
#[derive(Clone, Debug, Default)]
pub struct CoverageSink {
    map: CoverageMap,
    tag: u64,
    last_kind: BTreeMap<u32, &'static str>,
}

impl CoverageSink {
    /// A sink whose features are tagged with `tag` (use 0 for none).
    pub fn new(tag: u64) -> CoverageSink {
        CoverageSink {
            map: CoverageMap::new(),
            tag,
            last_kind: BTreeMap::new(),
        }
    }

    /// The accumulated map.
    pub fn map(&self) -> &CoverageMap {
        &self.map
    }

    /// Consume the sink, returning the accumulated map.
    pub fn into_map(self) -> CoverageMap {
        self.map
    }
}

impl Sink for CoverageSink {
    fn event(&mut self, node: u32, _at: Ticks, ev: &Event) {
        let t = self.tag;
        let n = u64::from(node);
        let key_class = |k: &EntryKey| -> u64 {
            match k {
                EntryKey::Star => 0,
                EntryKey::Source(_) => 1,
            }
        };
        match ev {
            Event::EntryCreated { key, flags: f2, .. } => self.map.record(feature(
                "entry-flags",
                &[t, n, key_class(key), 0, u64::from(*f2)],
            )),
            Event::EntryModified { key, from, to, .. } => self.map.record(feature(
                "entry-flags",
                &[t, n, key_class(key), u64::from(*from), u64::from(*to)],
            )),
            Event::EntryExpired { key, .. } => self
                .map
                .record(feature("entry-expired", &[t, n, key_class(key)])),
            Event::CtrlSend { kind, .. } => {
                self.map
                    .record(feature("ctrl-send", &[t, n, strpart(kind)]));
            }
            Event::CtrlRecv { kind, .. } => {
                self.map
                    .record(feature("ctrl-recv", &[t, n, strpart(kind)]));
            }
            Event::DecodeFailed { kind, .. } => {
                self.map.record(feature("decode", &[t, n, strpart(kind)]));
            }
            Event::ChannelImpaired { what, link } => self
                .map
                .record(feature("impair", &[t, u64::from(*link), strpart(what)])),
            // Congestion features reward schedules that actually reach
            // queue pressure: drops by class and link, marks by link,
            // and depth by link + log2 backlog bucket.
            Event::QueueDrop { what, link } => self
                .map
                .record(feature("qdrop", &[t, u64::from(*link), strpart(what)])),
            Event::EcnMark { link } => self.map.record(feature("ecn", &[t, u64::from(*link)])),
            Event::QueueDepth { link, bytes } => self.map.record(feature(
                "qdepth",
                &[t, u64::from(*link), u64::from(CoverageMap::bucket(*bytes))],
            )),
            Event::DataDelivered { .. } => self.map.record(feature("deliver", &[t, n])),
            // Everything else contributes its kind per node (RP
            // failover, DR/querier flips, SPT switch starts, faults,
            // route changes, membership, timers).
            other => self
                .map
                .record(feature("ev", &[t, n, strpart(other.kind())])),
        }
        // Event-kind digram per node: the interleaving signal.
        let k = ev.kind();
        if let Some(prev) = self.last_kind.insert(node, k) {
            self.map
                .record(feature("digram", &[t, n, strpart(prev), strpart(k)]));
        }
    }
}

/// `show mroute`-style introspection: every protocol engine renders
/// its live multicast state — (*,G)/(S,G) entries with flag bits,
/// outgoing interfaces, and timers — as stable text for replay
/// artifacts and debugging sessions.
pub trait StateDump {
    /// Render the full multicast routing state at sim time `now`, one
    /// entry per line. Must be deterministic (iterate sorted maps) and
    /// free of wall-clock values.
    fn state_dump(&self, now: Ticks) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Group {
        Group::test(7)
    }

    #[test]
    fn flags_render_stable() {
        assert_eq!(flags::render(0), "-");
        assert_eq!(flags::render(flags::WC | flags::RP), "WC|RP");
        assert_eq!(flags::render(flags::SPT), "SPT");
        assert_eq!(
            flags::render(flags::PRUNED | flags::ON_TREE),
            "PRUNED|ON_TREE"
        );
    }

    #[test]
    fn disabled_handle_never_runs_closure() {
        let t = Telem::disabled();
        assert!(!t.is_enabled());
        t.emit(5, || panic!("closure must not run when disabled"));
    }

    #[test]
    fn flight_recorder_bounds_and_orders() {
        let rec = Arc::new(Mutex::new(FlightRecorder::new(3)));
        let t = Telem::attached(rec.clone(), 9);
        assert!(t.is_enabled());
        for i in 0..5u64 {
            t.emit(i, || Event::TimerFired { token: i });
        }
        let dump = rec.lock().unwrap().dump(9);
        assert_eq!(
            dump,
            vec![
                "t2 timer-fired token=2",
                "t3 timer-fired token=3",
                "t4 timer-fired token=4"
            ]
        );
        assert_eq!(rec.lock().unwrap().nodes(), vec![9]);
        assert!(rec.lock().unwrap().dump(1).is_empty());
    }

    #[test]
    fn jsonl_lines_are_stable() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.event(
            2,
            10,
            &Event::EntryCreated {
                group: g(),
                key: EntryKey::Star,
                flags: flags::WC | flags::RP,
            },
        );
        sink.event(
            2,
            11,
            &Event::Fault {
                desc: "crash \"r2\"".into(),
            },
        );
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            text,
            concat!(
                "{\"t\":10,\"node\":2,\"ev\":\"entry_created\",\"group\":\"239.1.0.7\",",
                "\"key\":\"*\",\"flags\":\"WC|RP\"}\n",
                "{\"t\":11,\"node\":2,\"ev\":\"fault\",\"desc\":\"crash \\\"r2\\\"\"}\n"
            )
        );
    }

    #[test]
    fn histogram_buckets_log2() {
        let mut h = Histogram::default();
        for d in [0, 1, 2, 3, 4, 1000] {
            h.record(d);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), (1010 / 6) as Ticks);
        // 0,1 -> bucket 0; 2,3 -> bucket 1; 4 -> bucket 2; 1000 -> bucket 9.
        assert_eq!(
            h.render(),
            "count=6 mean=168 max=1000 buckets=[2, 2, 1, 0, 0, 0, 0, 0, 0, 1]"
        );
    }

    #[test]
    fn metrics_join_latency_and_spt() {
        let mut m = MetricsAggregator::new();
        let s = Addr::new(10, 0, 0, 1);
        m.event(1, 100, &Event::LocalMemberJoined { group: g() });
        m.event(
            1,
            130,
            &Event::DataDelivered {
                group: g(),
                source: s,
            },
        );
        // Second delivery for the same (node, group) is not a new join.
        m.event(
            1,
            140,
            &Event::DataDelivered {
                group: g(),
                source: s,
            },
        );
        m.event(
            2,
            200,
            &Event::SptSwitchStart {
                group: g(),
                source: s,
            },
        );
        m.event(
            2,
            260,
            &Event::EntryModified {
                group: g(),
                key: EntryKey::Source(s),
                from: flags::RP,
                to: flags::SPT,
            },
        );
        assert_eq!(m.join_latency.count(), 1);
        assert_eq!(m.join_latency.mean(), 30);
        assert_eq!(m.spt_switch.count(), 1);
        assert_eq!(m.spt_switch.mean(), 60);
    }

    #[test]
    fn metrics_reconvergence_windows() {
        let mut m = MetricsAggregator::new();
        m.event(
            0,
            100,
            &Event::Fault {
                desc: "link-down 0".into(),
            },
        );
        m.event(
            1,
            150,
            &Event::RouteChanged {
                dst: Addr::new(10, 0, 0, 2),
            },
        );
        m.event(
            1,
            180,
            &Event::EntryExpired {
                group: g(),
                key: EntryKey::Star,
            },
        );
        // Next fault closes the first window at the last state change (180).
        m.event(
            0,
            400,
            &Event::Fault {
                desc: "crash 1".into(),
            },
        );
        m.event(2, 420, &Event::LocalMemberLeft { group: g() });
        m.finish();
        assert_eq!(m.reconvergence.count(), 2);
        assert_eq!(m.reconvergence.max(), 80);
    }

    #[test]
    fn fanout_feeds_all_children() {
        let rec = Arc::new(Mutex::new(FlightRecorder::new(8)));
        let metrics = Arc::new(Mutex::new(MetricsAggregator::new()));
        let mut fan = Fanout::new();
        fan.push(rec.clone());
        fan.push(metrics.clone());
        fan.event(3, 50, &Event::LocalMemberJoined { group: g() });
        assert_eq!(rec.lock().unwrap().dump(3).len(), 1);
        assert_eq!(metrics.lock().unwrap().pending_joins.len(), 1);
    }

    #[test]
    fn message_kind_covers_renderable_names() {
        use wire::igmp::HostQuery;
        let m = Message::HostQuery(HostQuery { max_resp_time: 10 });
        assert_eq!(message_kind(&m), "igmp-query");
    }

    #[test]
    fn coverage_features_are_stable_and_tagged() {
        // Feature ids are pure functions of their inputs.
        assert_eq!(feature("x", &[1, 2]), feature("x", &[1, 2]));
        assert_ne!(feature("x", &[1, 2]), feature("x", &[2, 1]));
        assert_ne!(feature("x", &[1]), feature("y", &[1]));
        // Tags separate otherwise identical streams.
        let ev = Event::CtrlSend {
            kind: "pim-join-prune",
            dst: Addr::new(10, 0, 0, 1),
        };
        let mut a = CoverageSink::new(0);
        let mut b = CoverageSink::new(1);
        a.event(1, 5, &ev);
        b.event(1, 5, &ev);
        assert_eq!(a.map().distinct(), 1);
        assert_ne!(a.map().stable_hash(), b.map().stable_hash());
    }

    #[test]
    fn coverage_map_merge_is_order_independent() {
        let mut x = CoverageMap::new();
        let mut y = CoverageMap::new();
        for f in [10u64, 20, 20, 30] {
            x.record(f);
        }
        for f in [20u64, 40] {
            y.record(f);
        }
        let mut xy = x.clone();
        xy.merge(&y);
        let mut yx = y.clone();
        yx.merge(&x);
        assert_eq!(xy, yx);
        assert_eq!(xy.distinct(), 4);
        assert_eq!(xy.total(), 6);
        assert_eq!(xy.stable_hash(), yx.stable_hash());
        assert_eq!(y.novel_vs(&x), 1); // only 40 is new
        assert!(x.contains(30) && !x.contains(40));
    }

    #[test]
    fn coverage_hash_buckets_counts_log2() {
        // Hit counts in the same log2 bucket hash identically; crossing
        // a bucket boundary changes the hash.
        let mut a = CoverageMap::new();
        let mut b = CoverageMap::new();
        for _ in 0..8 {
            a.record(1);
        }
        for _ in 0..15 {
            b.record(1);
        }
        assert_eq!(a.stable_hash(), b.stable_hash(), "8 and 15 share bucket 4");
        let mut c = CoverageMap::new();
        for _ in 0..16 {
            c.record(1);
        }
        assert_ne!(b.stable_hash(), c.stable_hash(), "16 opens bucket 5");
    }

    #[test]
    fn coverage_sink_folds_transitions_and_digrams() {
        let mut s = CoverageSink::new(0);
        let e1 = Event::EntryCreated {
            group: g(),
            key: EntryKey::Star,
            flags: flags::WC | flags::RP,
        };
        let e2 = Event::EntryModified {
            group: g(),
            key: EntryKey::Star,
            from: flags::WC | flags::RP,
            to: flags::WC | flags::RP | flags::SPT,
        };
        s.event(2, 10, &e1);
        s.event(2, 11, &e2);
        // entry-flags x2 (distinct transitions) + one digram.
        assert_eq!(s.map().distinct(), 3);
        // Same events replayed: same features, same hash, no new ones.
        let mut s2 = CoverageSink::new(0);
        s2.event(2, 99, &e1);
        s2.event(2, 100, &e2);
        assert_eq!(
            s.map().stable_hash(),
            s2.map().stable_hash(),
            "coverage is time-invariant"
        );
        assert_eq!(s2.map().novel_vs(s.map()), 0);
        // A different transition on another node is novel.
        s2.event(3, 101, &e1);
        assert_eq!(s2.map().novel_vs(s.map()), 1);
    }

    #[test]
    fn congestion_events_render_fold_and_never_reconverge() {
        let drop = Event::QueueDrop {
            what: "data",
            link: 3,
        };
        let mark = Event::EcnMark { link: 3 };
        let depth = Event::QueueDepth { link: 3, bytes: 96 };
        assert_eq!(drop.render(), "queue-drop data link=3");
        assert_eq!(mark.render(), "ecn-mark link=3");
        assert_eq!(depth.render(), "queue-depth link=3 bytes=96");
        assert_eq!(
            drop.to_json(1, 7),
            "{\"t\":7,\"node\":1,\"ev\":\"queue_drop\",\"what\":\"data\",\"link\":3}"
        );
        assert_eq!(
            depth.to_json(1, 8),
            "{\"t\":8,\"node\":1,\"ev\":\"queue_depth\",\"link\":3,\"bytes\":96}"
        );

        // Congestion noise must not open or extend reconvergence windows.
        let mut m = MetricsAggregator::new();
        m.event(0, 100, &Event::Fault { desc: "cap".into() });
        m.event(1, 150, &drop);
        m.event(1, 160, &mark);
        m.event(1, 170, &depth);
        m.finish();
        // The fault itself closes as a 0-tick window at finish();
        // congestion noise at t=150..170 must not have extended it.
        assert_eq!(m.reconvergence.count(), 1);
        assert_eq!(m.reconvergence.max(), 0, "no state change after fault");
        assert_eq!(m.queue_drops, 1);
        assert_eq!(m.ecn_marks, 1);
        assert_eq!(m.queue_depth.count(), 1);
        assert_eq!(m.queue_depth.max(), 96);

        // Each congestion event is a distinct coverage feature; depth
        // folds by log2 bucket, so 96 and 127 collide but 256 is novel.
        let mut s = CoverageSink::new(0);
        s.event(1, 5, &drop);
        s.event(1, 6, &mark);
        s.event(1, 7, &depth);
        let base = s.map().clone();
        let mut s2 = CoverageSink::new(0);
        s2.event(
            1,
            9,
            &Event::QueueDepth {
                link: 3,
                bytes: 127,
            },
        );
        assert_eq!(s2.map().novel_vs(&base), 0, "same log2 bucket");
        s2.event(
            1,
            10,
            &Event::QueueDepth {
                link: 3,
                bytes: 256,
            },
        );
        // Novelty: the bucket-9 qdepth feature plus the depth→depth
        // digram, neither of which the base stream produced.
        assert_eq!(s2.map().novel_vs(&base), 2, "new bucket is novel");
    }

    #[test]
    fn for_node_rekeys() {
        let rec = Arc::new(Mutex::new(FlightRecorder::new(8)));
        let t = Telem::attached(rec.clone(), 0);
        let t5 = t.for_node(5);
        t5.emit(1, || Event::TimerFired { token: 1 });
        assert_eq!(rec.lock().unwrap().dump(5).len(), 1);
        assert!(rec.lock().unwrap().dump(0).is_empty());
        assert_eq!(format!("{t5:?}"), "Telem(node 5)");
        assert_eq!(format!("{:?}", Telem::disabled()), "Telem(disabled)");
    }
}
