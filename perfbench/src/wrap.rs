//! Pass-through wrappers that time a layer from outside, through its
//! public trait. Each forwards every call unchanged, so a world built
//! from wrapped parts runs exactly like the unwrapped one; node wrappers
//! forward `as_any` so the world's downcasts reach the wrapped node.

use crate::span::{count, span, Count, Layer};
use netsim::{Ctx, Duration, IfaceId, Node, SimTime};
use node::{Action, ProtocolEngine};
use std::any::Any;
use std::time::Instant;
use telemetry::{Event, EventId, Provenance, Sink, StateDump, Telem, Ticks};
use unicast::{Output, Rib, RouteEntry};
use wire::ip::{Header, Protocol};
use wire::{Addr, Group, Message};

/// A timed `netsim::Node`: routers are charged to the `node` layer,
/// host nodes to `igmp`. Routers also shadow-decode every frame they
/// receive, so the `wire` decode cost is measured on real traffic.
pub struct TracedNode<N> {
    inner: N,
    host: bool,
}

impl<N: Node + 'static> TracedNode<N> {
    /// Wrap a router.
    pub fn router(inner: N) -> TracedNode<N> {
        TracedNode { inner, host: false }
    }

    /// Wrap a host node.
    pub fn host(inner: N) -> TracedNode<N> {
        TracedNode { inner, host: true }
    }

    fn layer(&self, router: Layer) -> Layer {
        if self.host {
            Layer::IgmpHost
        } else {
            router
        }
    }
}

/// Decode `packet` through `wire`'s public API, as the router adapter
/// does, and record the frame count and time.
fn shadow_decode(packet: &[u8]) {
    span(Layer::WireShadow, || {
        let t = Instant::now();
        if let Ok((header, payload)) = Header::decap(packet) {
            std::hint::black_box(&header);
            if header.proto == Protocol::Igmp {
                let _ = std::hint::black_box(Message::decode(payload));
            }
        }
        count(Count::DecodeNs, t.elapsed().as_nanos() as u64);
        count(Count::DecodeFrames, 1);
    });
}

impl<N: Node + 'static> Node for TracedNode<N> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        span(self.layer(Layer::NodeOther), || self.inner.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &[u8]) {
        if !self.host {
            shadow_decode(packet);
        }
        span(self.layer(Layer::NodePacket), || {
            self.inner.on_packet(ctx, iface, packet)
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        span(self.layer(Layer::NodeTimer), || {
            self.inner.on_timer(ctx, token)
        });
    }

    fn on_crash(&mut self) {
        span(self.layer(Layer::NodeOther), || self.inner.on_crash());
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        span(self.layer(Layer::NodeOther), || self.inner.on_restart(ctx));
    }

    fn set_telemetry(&mut self, telem: Telem) {
        self.inner.set_telemetry(telem);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A timed `node::ProtocolEngine`. Control messages in the returned
/// actions are shadow-encoded, so the `wire` encode cost is measured on
/// the messages the engine really sends.
pub struct TracedEngine<E> {
    /// The wrapped engine.
    pub inner: E,
}

impl<E> TracedEngine<E> {
    /// Wrap an engine.
    pub fn new(inner: E) -> TracedEngine<E> {
        TracedEngine { inner }
    }
}

fn shadow_encode(actions: &[Action]) {
    if !actions.iter().any(|a| matches!(a, Action::Control { .. })) {
        return;
    }
    span(Layer::WireShadow, || {
        let t = Instant::now();
        let mut n = 0;
        for a in actions {
            if let Action::Control { msg, .. } = a {
                std::hint::black_box(msg.encode());
                n += 1;
            }
        }
        count(Count::EncodeNs, t.elapsed().as_nanos() as u64);
        count(Count::EncodeMsgs, n);
    });
}

fn engine_call(layer: Layer, f: impl FnOnce() -> Vec<Action>) -> Vec<Action> {
    let actions = span(layer, f);
    shadow_encode(&actions);
    actions
}

impl<E: StateDump> StateDump for TracedEngine<E> {
    fn state_dump(&self, now: Ticks) -> String {
        self.inner.state_dump(now)
    }
}

impl<E: ProtocolEngine> ProtocolEngine for TracedEngine<E> {
    fn addr(&self) -> Addr {
        self.inner.addr()
    }

    fn on_control(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        dst: Addr,
        msg: &Message,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        engine_call(Layer::PimControl, || {
            self.inner.on_control(now, iface, src, dst, msg, rib)
        })
    }

    fn on_multicast_data(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        source: Addr,
        group: Group,
        ttl: u8,
        payload: &[u8],
        from_host_lan: bool,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        engine_call(Layer::PimData, || {
            self.inner.on_multicast_data(
                now,
                iface,
                source,
                group,
                ttl,
                payload,
                from_host_lan,
                rib,
            )
        })
    }

    fn relays_unicast(&self) -> bool {
        self.inner.relays_unicast()
    }

    fn local_member_joined(
        &mut self,
        now: SimTime,
        group: Group,
        iface: IfaceId,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        engine_call(Layer::PimOther, || {
            self.inner.local_member_joined(now, group, iface, rib)
        })
    }

    fn local_member_left(&mut self, now: SimTime, group: Group, iface: IfaceId) -> Vec<Action> {
        engine_call(Layer::PimOther, || {
            self.inner.local_member_left(now, group, iface)
        })
    }

    fn rp_mapping_learned(&mut self, group: Group, rps: &[Addr]) {
        span(Layer::PimOther, || {
            self.inner.rp_mapping_learned(group, rps)
        });
    }

    fn host_lan_attached(&mut self, iface: IfaceId) -> u32 {
        self.inner.host_lan_attached(iface)
    }

    fn register_local_host(&mut self, host: Addr, iface: IfaceId) {
        self.inner.register_local_host(host, iface);
    }

    fn on_route_change(&mut self, now: SimTime, dst: Addr, rib: &dyn Rib) -> Vec<Action> {
        engine_call(Layer::PimOther, || {
            self.inner.on_route_change(now, dst, rib)
        })
    }

    fn reset(&mut self) {
        span(Layer::PimOther, || self.inner.reset());
    }

    fn tick(&mut self, now: SimTime, rib: &dyn Rib) -> Vec<Action> {
        let actions = engine_call(Layer::PimTick, || self.inner.tick(now, rib));
        if !actions.is_empty() {
            count(Count::UsefulTicks, 1);
        }
        actions
    }

    fn next_deadline(&self) -> Option<SimTime> {
        span(Layer::PimDeadline, || self.inner.next_deadline())
    }

    fn set_telemetry(&mut self, telem: Telem) {
        self.inner.set_telemetry(telem);
    }
}

/// A timed `unicast::Engine` (and so `unicast::Rib`).
pub struct TracedRib<R> {
    inner: R,
}

impl<R> TracedRib<R> {
    /// Wrap a routing engine.
    pub fn new(inner: R) -> TracedRib<R> {
        TracedRib { inner }
    }
}

impl<R: Rib> Rib for TracedRib<R> {
    fn local_addr(&self) -> Addr {
        self.inner.local_addr()
    }

    fn route(&self, dst: Addr) -> Option<RouteEntry> {
        span(Layer::UnicastRoute, || self.inner.route(dst))
    }

    fn rpf_iface(&self, src: Addr) -> Option<IfaceId> {
        span(Layer::UnicastRoute, || self.inner.rpf_iface(src))
    }
}

impl<R: unicast::Engine> unicast::Engine for TracedRib<R> {
    fn on_start(&mut self, now: SimTime) -> Vec<Output> {
        span(Layer::UnicastOther, || self.inner.on_start(now))
    }

    fn on_message(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        msg: &Message,
    ) -> Vec<Output> {
        span(Layer::UnicastOther, || {
            self.inner.on_message(now, iface, src, msg)
        })
    }

    fn tick(&mut self, now: SimTime) -> Vec<Output> {
        span(Layer::UnicastOther, || self.inner.tick(now))
    }

    fn tick_interval(&self) -> Duration {
        self.inner.tick_interval()
    }

    fn next_deadline(&self) -> Option<SimTime> {
        span(Layer::UnicastOther, || self.inner.next_deadline())
    }

    fn table_size(&self) -> usize {
        self.inner.table_size()
    }

    fn attach_local(&mut self, host: Addr, cost: u32) {
        self.inner.attach_local(host, cost);
    }

    fn grow_iface(&mut self, cost: u32) {
        self.inner.grow_iface(cost);
    }

    fn reset(&mut self) {
        span(Layer::UnicastOther, || self.inner.reset());
    }
}

/// A timed `telemetry::Sink`: counts events and causal links and the
/// host time spent in the wrapped sink.
pub struct TimedSink<S> {
    /// The wrapped sink.
    pub inner: S,
    /// Events delivered (`event` and `event_caused`).
    pub events: u64,
    /// Causal links delivered.
    pub links: u64,
    /// Nanoseconds spent inside the wrapped sink, links included.
    pub ns: u64,
}

impl<S> TimedSink<S> {
    /// Wrap a sink.
    pub fn new(inner: S) -> TimedSink<S> {
        TimedSink {
            inner,
            events: 0,
            links: 0,
            ns: 0,
        }
    }
}

impl<S: Sink> Sink for TimedSink<S> {
    fn event(&mut self, node: u32, at: Ticks, ev: &Event) {
        let t = Instant::now();
        self.inner.event(node, at, ev);
        self.ns += t.elapsed().as_nanos() as u64;
        self.events += 1;
    }

    fn event_caused(&mut self, node: u32, at: Ticks, ev: &Event, prov: Provenance) {
        let t = Instant::now();
        self.inner.event_caused(node, at, ev, prov);
        self.ns += t.elapsed().as_nanos() as u64;
        self.events += 1;
    }

    fn link(&mut self, id: EventId, cause: Option<EventId>) {
        let t = Instant::now();
        self.inner.link(id, cause);
        self.ns += t.elapsed().as_nanos() as u64;
        self.links += 1;
    }
}
