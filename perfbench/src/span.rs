//! Self-time spans for the traced run, recorded from outside the layers.
//!
//! A span covers one call into a layer. Its *self* time is its duration
//! minus the spans nested inside it, so the self times of all layers add
//! up to the outermost span (`netsim` around `World::run_until`) by
//! construction; what is left over is the timer cost between spans.
//! The recorder is thread-local: the simulation workloads run on one
//! thread, and the Monte-Carlo workload times its trials directly.

use std::cell::RefCell;
use std::time::Instant;

/// The layers a span can be charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `World::run_until` itself: the event loop minus every callback.
    Netsim,
    /// A router's `Node::on_packet` (node adapter, decode, IGMP querier).
    NodePacket,
    /// A router's `Node::on_timer`.
    NodeTimer,
    /// Any other router callback (`on_start`, `on_restart`).
    NodeOther,
    /// `ProtocolEngine::on_control`.
    PimControl,
    /// `ProtocolEngine::on_multicast_data`.
    PimData,
    /// `ProtocolEngine::tick`.
    PimTick,
    /// `ProtocolEngine::next_deadline`.
    PimDeadline,
    /// Every other engine call (membership, route change, reset, state
    /// sampling).
    PimOther,
    /// `Rib::route` and `Rib::rpf_iface`.
    UnicastRoute,
    /// Every other unicast-engine call.
    UnicastOther,
    /// Host nodes (`HostNode`, `PopulationNode`): callbacks and the
    /// scripted joins and sends.
    IgmpHost,
    /// The traced run's own shadow decode and encode of observed frames.
    WireShadow,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 13;

/// Extra counts recorded next to the spans.
#[derive(Clone, Copy, Debug)]
pub enum Count {
    /// Frames shadow-decoded.
    DecodeFrames,
    /// Nanoseconds spent shadow-decoding.
    DecodeNs,
    /// Messages shadow-encoded.
    EncodeMsgs,
    /// Nanoseconds spent shadow-encoding.
    EncodeNs,
    /// `tick` calls that returned at least one action.
    UsefulTicks,
}

const COUNTS: usize = 5;

/// Accumulated self time and call count per layer, plus the counts.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Self nanoseconds per layer.
    pub self_ns: [u64; LAYERS],
    /// Spans entered per layer.
    pub calls: [u64; LAYERS],
    /// Extra counts, indexed by [`Count`].
    pub counts: [u64; COUNTS],
}

impl Totals {
    /// Self milliseconds of `layer`.
    pub fn ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e6
    }

    /// Calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// An extra count.
    pub fn count(&self, c: Count) -> u64 {
        self.counts[c as usize]
    }

    /// Sum of every layer's self time, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e6
    }
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Recorder {
    totals: Totals,
    stack: Vec<Frame>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Run `f` inside a span charged to `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    REC.with(|r| {
        r.borrow_mut().stack.push(Frame {
            layer,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let out = f();
    let end = Instant::now();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let frame = r.stack.pop().expect("span stack underflow");
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        let l = frame.layer as usize;
        r.totals.self_ns[l] += dur.saturating_sub(frame.child_ns);
        r.totals.calls[l] += 1;
        if let Some(parent) = r.stack.last_mut() {
            parent.child_ns += dur;
        }
    });
    out
}

/// Add `n` to an extra count.
pub fn count(c: Count, n: u64) {
    REC.with(|r| r.borrow_mut().totals.counts[c as usize] += n);
}

/// Take the totals recorded so far on this thread and start afresh.
pub fn take() -> Totals {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.stack.clear();
        std::mem::take(&mut r.totals)
    })
}

/// Mean cost of one empty span in nanoseconds: the timer overhead each
/// recorded call adds to the layer that contains it.
pub fn empty_span_ns() -> f64 {
    const N: u64 = 200_000;
    let _ = take();
    let t = Instant::now();
    for _ in 0..N {
        span(Layer::WireShadow, || std::hint::black_box(0));
    }
    let ns = t.elapsed().as_nanos() as f64 / N as f64;
    let _ = take();
    ns
}
