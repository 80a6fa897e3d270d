//! Repro check: when transmissions exceed the capture limit, does
//! captured() keep the canonically first ones, whatever order the
//! world ran them in?

use netsim::{Ctx, Duration, IfaceId, Node, NodeIdx, SimTime, World};
use std::any::Any;

/// Replies with one packet to every packet it receives.
struct Echo;

impl Node for Echo {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, _packet: &[u8]) {
        ctx.send(iface, vec![0xEE]);
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn run() -> Vec<String> {
    let mut w = World::new(1);
    // nodes: 0=A, 1=B, 2=C, 3=D
    let n: Vec<NodeIdx> = (0..4).map(|_| w.add_node(Box::new(Echo))).collect();
    // A-D and C-B, both delay 2: deliveries to D and B land at the same tick.
    w.add_p2p(n[0], n[3], Duration(2));
    w.add_p2p(n[2], n[1], Duration(2));
    w.enable_capture(3);
    let (a, c) = (n[0], n[2]);
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![1]));
        w.call_node(c, |_n, ctx| ctx.send(IfaceId(0), vec![2]));
    });
    w.run_until(SimTime(2));
    w.captured()
        .iter()
        .map(|r| format!("{} {:?} {:?}", r.at.ticks(), r.link, r.from))
        .collect()
}

#[test]
fn capture_truncation_partition_independence() {
    // The script's two sends at t0, then — of the two echoes at t2 —
    // B's (node 1), whose dispatch tag sorts before D's (node 3).
    assert_eq!(
        run(),
        ["0 LinkId(0) N0", "0 LinkId(1) N2", "2 LinkId(1) N1"],
        "captured() kept the wrong records"
    );
}
