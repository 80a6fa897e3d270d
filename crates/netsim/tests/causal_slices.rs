//! Property tests for the causal-provenance layer (DESIGN.md §11): the
//! [`telemetry::CausalIndex`] built from a run must be a DAG whose
//! parents precede their children in canonical-key order, backward
//! slices must reach multi-hop roots, and one faulted, lossy world's
//! whole telemetry stream, causal index and capture are pinned byte for
//! byte.

use netsim::{Ctx, Duration, IfaceId, Node, NodeIdx, SimTime, World};
use proptest::prelude::*;
use std::any::Any;
use std::sync::{Arc, Mutex};
use telemetry::{CausalIndex, Event, Telem};
use wire::{Addr, Group};

/// A node that narrates its own activity through telemetry: membership
/// on start, entry-flag transitions and timer events on every firing,
/// data deliveries on every reception. Gives the causal index real
/// records to slice, not just silent dispatch edges.
struct Narrator {
    telem: Telem,
    flags: u8,
}

impl Narrator {
    fn new() -> Self {
        Narrator {
            telem: Telem::disabled(),
            flags: 0,
        }
    }

    fn group(ctx: &Ctx<'_>) -> Group {
        Group::test(ctx.me().0 as u32)
    }
}

impl Node for Narrator {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let g = Self::group(ctx);
        self.telem
            .emit(ctx.now().ticks(), || Event::LocalMemberJoined { group: g });
        ctx.set_timer(Duration(3), 1);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &[u8]) {
        let g = Self::group(ctx);
        let src = Addr(u32::from(packet[0]));
        self.telem.emit(ctx.now().ticks(), || Event::DataDelivered {
            group: g,
            source: src,
        });
        let from = self.flags;
        self.flags = self.flags.wrapping_add(1) & 0x7;
        let to = self.flags;
        self.telem.emit(ctx.now().ticks(), || Event::EntryModified {
            group: g,
            key: telemetry::EntryKey::Star,
            from,
            to,
        });
        let _ = iface;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.telem
            .emit(ctx.now().ticks(), || Event::TimerFired { token });
        let me = ctx.me().0 as u8;
        for i in 0..ctx.iface_count() {
            ctx.send(IfaceId(i as u32), vec![me, 0x5A]);
        }
        if ctx.now() < SimTime(180) {
            ctx.set_timer(Duration(7), token);
        }
    }

    fn set_telemetry(&mut self, telem: Telem) {
        self.telem = telem;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Run the 6-node fixture (line 0-1-2-3 plus LAN {1,4,5}) and fold the
/// full telemetry stream into a causal index.
fn run(seed: u64, delays: &[u64; 3], loss: f64, faults: bool) -> CausalIndex {
    let mut w = World::new(seed);
    let nodes: Vec<NodeIdx> = (0..6)
        .map(|_| w.add_node(Box::new(Narrator::new())))
        .collect();
    let mut links = Vec::new();
    for (i, &d) in delays.iter().enumerate() {
        let (l, _, _) = w.add_p2p(nodes[i], nodes[i + 1], Duration(d));
        links.push(l);
    }
    let (lan, _) = w.add_lan(&[nodes[1], nodes[4], nodes[5]], Duration(1));
    if loss > 0.0 {
        w.set_link_loss(links[1], loss);
        w.set_link_loss(lan, loss / 2.0);
    }
    if faults {
        let n2 = nodes[2];
        w.at(SimTime(60), move |w| {
            w.emit_event(
                n2,
                Event::Fault {
                    desc: "crash r2".into(),
                },
            );
            w.crash_node(n2);
        });
        w.at(SimTime(120), move |w| {
            w.emit_event(
                n2,
                Event::Fault {
                    desc: "restart r2".into(),
                },
            );
            w.restart_node(n2);
        });
    }
    let index = Arc::new(Mutex::new(CausalIndex::new()));
    w.set_telemetry(index.clone());
    w.run_until(SimTime(250));
    let got = index.lock().unwrap().clone();
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The causal DAG is acyclic with parents strictly preceding
    /// children in canonical-key order, and the backward slice from
    /// the anchor `trace why` uses is genuinely multi-hop.
    #[test]
    fn causal_index_is_a_dag_and_partition_independent(
        seed in any::<u64>(),
        (d0, d1, d2) in (1u64..6, 1u64..6, 1u64..6),
        lossy in any::<bool>(),
        faults in any::<bool>(),
    ) {
        let delays = [d0, d1, d2];
        let loss = if lossy { 0.2 } else { 0.0 };
        let index = run(seed, &delays, loss, faults);

        // Structure: every cause edge points at a recorded dispatch with
        // a strictly smaller canonical key. That is a topological order,
        // so the graph is acyclic and parents precede children.
        prop_assert!(!index.is_empty());
        prop_assert!(index.check().is_ok(), "{:?}", index.check());

        if let Some(a) = index.last_flag_transition(None) {
            prop_assert!(!index.backward_slice(a).is_empty());
            prop_assert!(index.backward_chain(a).len() > 1);
        }
    }
}

/// Fault injections are roots of the DAG with a non-trivial forward
/// slice (the blast radius).
#[test]
fn fault_forward_slice_is_partition_independent() {
    let index = run(11, &[2, 3, 2], 0.0, true);
    let roots = index.fault_roots();
    assert!(!roots.is_empty(), "crash/restart should emit fault events");
    for &r in &roots {
        assert!(index.dispatch(r).expect("root is recorded").cause.is_none());
    }
    // The restart boots the node again: its blast radius is real.
    assert!(roots.iter().any(|&r| index.forward_slice(r).len() > 1));
}

/// The on-start membership join is a root: its backward chain is just
/// itself, and a later delivery's chain passes through a timer dispatch.
#[test]
fn backward_chain_reaches_a_root() {
    let idx = run(3, &[1, 2, 1], 0.0, false);
    let anchor = idx
        .last_flag_transition(None)
        .expect("flag transitions recorded");
    let chain = idx.backward_chain(anchor);
    assert!(chain.len() > 1, "expected a multi-hop chain");
    let root = idx.dispatch(chain[0]).expect("root is recorded");
    assert!(root.cause.is_none(), "chain must terminate at a root");
}

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Byte-level pins of one faulted, lossy, impaired and capped world
/// with telemetry and capture on: the JSONL stream, the causal-index
/// fingerprint and the capture digest. The constants are independent
/// records of the canonical order: any drift in it shows up here.
#[test]
fn faulted_world_stream_is_pinned() {
    let mut w = World::new(1994);
    let nodes: Vec<NodeIdx> = (0..6)
        .map(|_| w.add_node(Box::new(Narrator::new())))
        .collect();
    let mut links = Vec::new();
    for (i, d) in [2, 3, 1].into_iter().enumerate() {
        links.push(w.add_p2p(nodes[i], nodes[i + 1], Duration(d)).0);
    }
    let (lan, _) = w.add_lan(&[nodes[1], nodes[4], nodes[5]], Duration(1));
    w.set_link_loss(links[1], 0.2);
    w.set_channel_model(
        lan,
        netsim::ChannelModel {
            corrupt_pm: 100,
            duplicate_pm: 100,
            reorder_pm: 100,
            jitter: 5,
        },
    );
    w.set_link_capacity(
        links[0],
        netsim::LinkCapacity {
            bytes_per_tick: 1,
            queue_bytes: 2,
            ecn_bytes: 1,
            ctrl_priority: false,
        },
    );
    let n2 = nodes[2];
    w.at(SimTime(60), move |w| {
        w.emit_event(
            n2,
            Event::Fault {
                desc: "crash r2".into(),
            },
        );
        w.crash_node(n2);
    });
    w.at(SimTime(120), move |w| {
        w.emit_event(
            n2,
            Event::Fault {
                desc: "restart r2".into(),
            },
        );
        w.restart_node(n2);
    });
    let jsonl = Arc::new(Mutex::new(telemetry::JsonlSink::new(Vec::new())));
    let index = Arc::new(Mutex::new(CausalIndex::new()));
    let mut fan = telemetry::Fanout::new();
    fan.push(jsonl.clone());
    fan.push(index.clone());
    w.set_telemetry(Arc::new(Mutex::new(fan)));
    w.enable_capture(64);
    w.run_until(SimTime(250));

    let stream = fnv(jsonl.lock().unwrap().get_ref());
    let causal = index.lock().unwrap().fingerprint();
    let capture: Vec<String> = w
        .captured()
        .iter()
        .map(|r| format!("{} {:?} {:?} {}\n", r.at.ticks(), r.link, r.from, r.summary))
        .collect();
    let capture = fnv(capture.concat().as_bytes());
    assert_eq!(
        (stream, causal, capture),
        (
            0x9879_8788_d44e_d8df,
            0x6cb1_5fd0_a1b9_32b9,
            0x4019_e61a_0a17_1174
        ),
        "stream {stream:#018x} causal {causal:#018x} capture {capture:#018x}"
    );
}
