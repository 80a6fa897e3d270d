//! A deterministic discrete-event network simulator.
//!
//! This is the substrate on which the PIM reproduction runs its protocol
//! experiments — the stand-in for the authors' simulator and for the MBONE
//! testbed (see DESIGN.md, "Substitutions"). It provides:
//!
//! * simulated time in abstract ticks ([`SimTime`], [`Duration`]);
//! * point-to-point links and multi-access LANs with per-link propagation
//!   delay (at least one tick), administrative up/down, and independent
//!   per-receiver loss injection ([`World::add_p2p`], [`World::add_lan`]);
//! * a [`Node`] trait implemented by protocol router/host adapters; nodes
//!   receive packets and timer callbacks and emit packets through [`Ctx`];
//! * deterministic execution: seeded per-node RNG streams and one event
//!   heap that dispatches in canonical order, so results and the
//!   telemetry stream are a pure function of the seed and the scenario;
//! * overhead [`Counters`] for the paper's efficiency metrics (control
//!   packets, data packets, bytes per link; local member deliveries);
//! * a [`build::Topology`] planner that instantiates a world from a
//!   [`graph::Graph`] with canonical addressing.

#![warn(missing_docs)]

pub mod build;
pub mod counters;
pub mod profile;
pub mod time;
pub mod trace;
pub mod world;

pub use build::{host_addr, node_of_addr, router_addr, Topology};
pub use counters::{Counters, CtrlProto, LinkStats, PacketClass};
pub use profile::SimProfile;
pub use time::{earliest, Duration, SimTime};
pub use world::{
    CaptureRecord, ChannelModel, Ctx, IfaceId, Link, LinkCapacity, LinkId, LinkKind, Node, NodeIdx,
    TimerId, World,
};
