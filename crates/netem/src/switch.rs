//! A wired switch/IP forwarder: routes packets to the node registered for
//! their destination address (the testbed's Fig. 2 switch).

use crate::fault::{trace_drop, FaultPlan, FaultState, FaultVerdict};
use obs::Registry;
use simcore::{Ctx, Node, NodeId, SimDuration};
use wire::{Ip, Msg};

/// The switch node.
pub struct SwitchNode {
    /// `(address, port)` pairs, scanned: a testbed routes a handful.
    routes: Vec<(Ip, NodeId)>,
    latency: SimDuration,
    /// Injected faults applied to every forwarded packet, if any.
    fault: Option<FaultState>,
    /// Packets dropped for lack of a route.
    pub dropped_no_route: u64,
    /// Packets dropped by the injected fault layer.
    pub dropped_fault: u64,
}

impl SwitchNode {
    /// Create a switch with a per-hop forwarding latency.
    pub fn new(latency: SimDuration) -> SwitchNode {
        SwitchNode {
            routes: Vec::new(),
            latency,
            fault: None,
            dropped_no_route: 0,
            dropped_fault: 0,
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

    /// Install a fault plan applied to every forwarded packet (replacing
    /// any previous one). The plan's own seed drives its verdicts.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.fault = plan.is_active().then(|| FaultState::new(plan));
    }

    /// Register the fault layer's counters as `fault.<label>.*` in `reg`.
    /// Call after [`SwitchNode::set_fault_plan`].
    pub fn attach_fault_metrics(&mut self, reg: &Registry, label: &str) {
        if let Some(fault) = &mut self.fault {
            fault.attach_metrics(reg, label);
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
        let (copies, extra_delay) = match &mut self.fault {
            Some(fault) => match fault.decide(0, ctx.now()) {
                FaultVerdict::Drop(reason) => {
                    self.dropped_fault += 1;
                    trace_drop(ctx, packet.id, "switch", reason);
                    return;
                }
                FaultVerdict::Deliver {
                    copies,
                    extra_delay,
                } => (copies, extra_delay),
            },
            None => (1, SimDuration::ZERO),
        };
        for _ in 0..copies {
            ctx.send(out, self.latency + extra_delay, Msg::Wire(packet));
        }
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
