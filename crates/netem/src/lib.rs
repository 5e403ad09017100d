//! # netem — the wired-network substrate
//!
//! The fixed half of the Fig. 2 testbed:
//!
//! * [`LinkNode`]: delay/jitter/loss links — the `tc netem` the paper uses
//!   to emulate 20–135 ms paths on the server side;
//! * [`SwitchNode`]: destination-routed forwarding;
//! * [`ServerNode`]: the measurement server (ICMP echo, TCP SYN/ACK and
//!   RST, HTTP-style data responses, UDP echo/discard);
//! * [`UdpBlasterNode`]: the iPerf-style cross-traffic generator of §4.3
//!   (10 × 2.5 Mbit/s UDP flows).
//!
//! ```
//! use netem::{LinkNode, LinkParams, ServerConfig, ServerNode};
//! use simcore::{Sim, SimTime};
//! use wire::{IcmpKind, Ip, Msg, Packet, PacketTag, L4};
//!
//! // Client -> 15 ms link -> server; the server echoes the ping.
//! let mut sim: Sim<Msg> = Sim::new(1);
//! struct Client(Option<SimTime>);
//! impl simcore::Node<Msg> for Client {
//!     fn on_message(&mut self, ctx: &mut simcore::Ctx<'_, Msg>, _: simcore::NodeId, m: Msg) {
//!         if matches!(m, Msg::Wire(_)) { self.0 = Some(ctx.now()); }
//!     }
//! }
//! let client = sim.add_node(Box::new(Client(None)));
//! let server_ip = Ip::new(10, 0, 0, 1);
//! let server = sim.add_node(Box::new(ServerNode::new(9, ServerConfig::standard(server_ip))));
//! let link = sim.add_node(Box::new(LinkNode::new(LinkParams::delay_ms(15))));
//! sim.node_mut::<LinkNode>(link).connect(client, server);
//! let ping = Packet {
//!     id: 1, src: Ip::new(10, 0, 0, 9), dst: server_ip, ttl: 64,
//!     l4: L4::Icmp { kind: IcmpKind::EchoRequest, ident: 7, seq: 0 },
//!     payload_len: 56, tag: PacketTag::Probe(0),
//! };
//! sim.inject(client, link, SimTime::ZERO, Msg::Wire(ping));
//! sim.run_until_idle(100);
//! let rtt = sim.node::<Client>(client).0.expect("echo came back");
//! assert!(rtt >= SimTime::from_millis(30)); // 2 × 15 ms + processing
//! ```

#![warn(missing_docs)]

mod fault;
mod link;
mod load;
mod server;
mod switch;

pub use fault::{
    trace_drop, DropReason, FaultNames, FaultPlan, FaultState, FaultStats, FaultVerdict, LossModel,
    FAULT_DIRS,
};
pub use link::{LinkNames, LinkNode, LinkParams, LinkStats};
pub use load::{LoadConfig, UdpBlasterNode};
pub use server::{ServerConfig, ServerNode, ServerStats};
pub use switch::SwitchNode;
