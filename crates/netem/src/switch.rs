//! A wired switch/IP forwarder: routes packets to the node registered for
//! their destination address (the testbed's Fig. 2 switch).

use simcore::{Ctx, Node, NodeId, SimDuration};
use wire::{Ip, Msg};

/// The switch node.
pub struct SwitchNode {
    /// `(address, port)` pairs, scanned: a testbed routes a handful.
    routes: Vec<(Ip, NodeId)>,
    latency: SimDuration,
    /// Packets dropped for lack of a route.
    pub dropped_no_route: u64,
}

impl SwitchNode {
    /// Create a switch with a per-hop forwarding latency.
    pub fn new(latency: SimDuration) -> SwitchNode {
        SwitchNode {
            routes: Vec::new(),
            latency,
            dropped_no_route: 0,
        }
    }

    /// Route packets destined to `ip` out of the port to `node`. Several
    /// addresses may share a port (e.g. the whole WLAN subnet behind the
    /// AP). A second route for `ip` replaces the first.
    pub fn add_route(&mut self, ip: Ip, node: NodeId) {
        match self.routes.iter_mut().find(|(a, _)| *a == ip) {
            Some((_, port)) => *port = node,
            None => self.routes.push((ip, node)),
        }
    }
}

impl Node<Msg> for SwitchNode {
    fn layer(&self) -> &'static str {
        "netem.switch"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        let Msg::Wire(packet) = msg else {
            debug_assert!(false, "switch got non-wire message");
            return;
        };
        let Some(&(_, out)) = self.routes.iter().find(|(ip, _)| *ip == packet.dst) else {
            self.dropped_no_route += 1;
            return;
        };
        ctx.send(out, self.latency, Msg::Wire(packet));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Sim, SimTime};
    use wire::{Packet, PacketTag, L4};

    struct Sink {
        got: Vec<u64>,
    }
    impl Node<Msg> for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Wire(p) = msg {
                self.got.push(p.id);
            }
        }
    }

    fn pkt(id: u64, dst: Ip) -> Packet {
        Packet {
            id,
            src: Ip::new(10, 0, 0, 9),
            dst,
            ttl: 64,
            l4: L4::Udp {
                src_port: 1,
                dst_port: 2,
            },
            payload_len: 0,
            tag: PacketTag::Other,
        }
    }

    #[test]
    fn routes_by_destination() {
        let mut sim = Sim::new(0);
        let a = sim.add_node(Box::new(Sink { got: vec![] }));
        let b = sim.add_node(Box::new(Sink { got: vec![] }));
        let sw = sim.add_node(Box::new(SwitchNode::new(SimDuration::from_micros(50))));
        sim.node_mut::<SwitchNode>(sw)
            .add_route(Ip::new(10, 0, 0, 1), a);
        sim.node_mut::<SwitchNode>(sw)
            .add_route(Ip::new(10, 0, 0, 2), b);
        sim.inject(
            a,
            sw,
            SimTime::ZERO,
            Msg::Wire(pkt(1, Ip::new(10, 0, 0, 2))),
        );
        sim.inject(
            a,
            sw,
            SimTime::ZERO,
            Msg::Wire(pkt(2, Ip::new(10, 0, 0, 1))),
        );
        sim.inject(a, sw, SimTime::ZERO, Msg::Wire(pkt(3, Ip::new(9, 9, 9, 9))));
        sim.run_until_idle(100);
        assert_eq!(sim.node::<Sink>(a).got, vec![2]);
        assert_eq!(sim.node::<Sink>(b).got, vec![1]);
        assert_eq!(sim.node::<SwitchNode>(sw).dropped_no_route, 1);
    }
}
