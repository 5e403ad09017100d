//! The measurement server: responds to every probe type the tools use.
//!
//! * ICMP echo request → echo reply;
//! * TCP SYN to a listening port → SYN/ACK (httping's and MobiPerf's
//!   control-message RTT);
//! * TCP SYN to a closed port → RST (the InetAddress/Java-ping method
//!   also measures RTT from this);
//! * TCP PSH/ACK ("HTTP request") to a listening port → PSH/ACK response
//!   (AcuteMon's data probe);
//! * UDP to an echo port → echoed back; anything else → discarded
//!   (the iPerf load sink).
//!
//! Per \[24\] (cited in §2.1), server-side turnaround for TCP data packets
//! is microsecond-level; the model uses a small processing distribution.

use obs::Snapshot;
use simcore::{Ctx, LatencyDist, Node, NodeId};
use wire::{IcmpKind, Ip, Msg, Packet, PacketIdGen, PacketTag, TcpFlags, L4};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The server's IP address.
    pub ip: Ip,
    /// TCP ports answered with SYN/ACK (and PSH/ACK for data probes).
    /// A few ports, so a scanned slice.
    pub tcp_listen: &'static [u16],
    /// UDP ports echoed back; other UDP is silently discarded.
    pub udp_echo: &'static [u16],
    /// Server processing time, ms.
    pub processing: LatencyDist,
    /// Payload size of the HTTP-style response to a data probe.
    pub http_response_len: usize,
}

impl ServerConfig {
    /// A typical measurement server at `ip`: HTTP on 80, echo on UDP 7.
    pub fn standard(ip: Ip) -> ServerConfig {
        ServerConfig {
            ip,
            tcp_listen: &[80, 8080],
            udp_echo: &[7],
            processing: LatencyDist::normal(0.08, 0.03, 0.02, 0.25),
            http_response_len: 220,
        }
    }
}

/// Counters for a server.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Packets addressed to the server.
    pub requests: u64,
    /// ICMP echo replies sent.
    pub icmp_replies: u64,
    /// SYN/ACKs sent.
    pub syn_acks: u64,
    /// RSTs sent.
    pub rsts: u64,
    /// HTTP-style data responses sent.
    pub http_responses: u64,
    /// UDP datagrams echoed.
    pub udp_echoed: u64,
    /// UDP datagrams discarded (load sink).
    pub udp_discarded: u64,
    /// UDP payload bytes discarded (goodput accounting for the load sink).
    pub udp_discarded_bytes: u64,
}

impl ServerStats {
    /// Replies sent, of every kind.
    pub fn responses(&self) -> u64 {
        self.icmp_replies + self.syn_acks + self.rsts + self.http_responses + self.udp_echoed
    }
}

/// The server node. It answers on the wire to whatever node delivered the
/// packet (its upstream switch/link).
pub struct ServerNode {
    cfg: ServerConfig,
    ids: PacketIdGen,
    /// Counters.
    pub stats: ServerStats,
}

impl ServerNode {
    /// Create a server; `source` seeds its packet-id space.
    pub fn new(source: u32, cfg: ServerConfig) -> ServerNode {
        ServerNode {
            cfg,
            ids: PacketIdGen::new(source),
            stats: ServerStats::default(),
        }
    }

    /// Write the server's counts into `out` as `netem.server.*`.
    pub fn export(&self, out: &mut Snapshot) {
        let s = &self.stats;
        out.add_counter("netem.server.requests", s.requests);
        out.add_counter("netem.server.responses", s.responses());
        out.add_counter("netem.server.discarded", s.udp_discarded);
    }

    fn reply_tag(req: &Packet) -> PacketTag {
        match req.tag {
            PacketTag::Probe(n) => PacketTag::ProbeReply(n),
            _ => PacketTag::Other,
        }
    }

    fn respond(&mut self, ctx: &mut Ctx<'_, Msg>, to: NodeId, req: &Packet, l4: L4, len: usize) {
        let reply = req.reply(self.ids.next_id(), l4, len, Self::reply_tag(req));
        let d = self.cfg.processing.sample(ctx.rng());
        // Carry the probe's trace over to the reply packet id and account
        // the turnaround time as a `server` span.
        let tracer = ctx.tracer();
        if tracer.packet_ctx(req.id).is_some() {
            tracer.rebind_packet(req.id, reply.id);
            if let Some(tc) = tracer.packet_ctx(reply.id) {
                let now = ctx.now();
                tracer.span(
                    tc.trace,
                    Some(tc.root),
                    "server",
                    "net",
                    now.as_nanos(),
                    (now + d).as_nanos(),
                );
            }
        }
        ctx.send(to, d, Msg::Wire(reply));
    }
}

impl Node<Msg> for ServerNode {
    fn layer(&self) -> &'static str {
        "netem.server"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        let Msg::Wire(packet) = msg else {
            debug_assert!(false, "server got non-wire message");
            return;
        };
        if packet.dst != self.cfg.ip {
            return; // not ours; a real host would drop silently
        }
        self.stats.requests += 1;
        match packet.l4 {
            L4::Icmp {
                kind: IcmpKind::EchoRequest,
                ident,
                seq,
            } => {
                self.stats.icmp_replies += 1;
                self.respond(
                    ctx,
                    from,
                    &packet,
                    L4::Icmp {
                        kind: IcmpKind::EchoReply,
                        ident,
                        seq,
                    },
                    packet.payload_len,
                );
            }
            L4::Icmp { .. } => {}
            L4::Tcp {
                src_port,
                dst_port,
                flags,
                seq,
                ..
            } => {
                let listening = self.cfg.tcp_listen.contains(&dst_port);
                if flags.contains(TcpFlags::SYN) && !flags.contains(TcpFlags::ACK) {
                    if listening {
                        self.stats.syn_acks += 1;
                        self.respond(
                            ctx,
                            from,
                            &packet,
                            L4::Tcp {
                                src_port: dst_port,
                                dst_port: src_port,
                                flags: TcpFlags::SYN | TcpFlags::ACK,
                                seq: 0x1000_0000,
                                ack: seq.wrapping_add(1),
                            },
                            0,
                        );
                    } else {
                        self.stats.rsts += 1;
                        self.respond(
                            ctx,
                            from,
                            &packet,
                            L4::Tcp {
                                src_port: dst_port,
                                dst_port: src_port,
                                flags: TcpFlags::RST | TcpFlags::ACK,
                                seq: 0,
                                ack: seq.wrapping_add(1),
                            },
                            0,
                        );
                    }
                } else if flags.contains(TcpFlags::PSH) && listening {
                    // HTTP-style request → data response.
                    self.stats.http_responses += 1;
                    let len = self.cfg.http_response_len;
                    self.respond(
                        ctx,
                        from,
                        &packet,
                        L4::Tcp {
                            src_port: dst_port,
                            dst_port: src_port,
                            flags: TcpFlags::PSH | TcpFlags::ACK,
                            seq: 0x1000_0001,
                            ack: seq.wrapping_add(packet.payload_len as u32),
                        },
                        len,
                    );
                }
                // Bare ACKs/FINs are absorbed (stateless responder).
            }
            L4::Udp { src_port, dst_port } => {
                if self.cfg.udp_echo.contains(&dst_port) {
                    self.stats.udp_echoed += 1;
                    self.respond(
                        ctx,
                        from,
                        &packet,
                        L4::Udp {
                            src_port: dst_port,
                            dst_port: src_port,
                        },
                        packet.payload_len,
                    );
                } else {
                    self.stats.udp_discarded += 1;
                    self.stats.udp_discarded_bytes += packet.payload_len as u64;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Sim, SimDuration, SimTime};

    struct Probe {
        got: Vec<Packet>,
    }
    impl Node<Msg> for Probe {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Wire(p) = msg {
                self.got.push(p);
            }
        }
    }

    const SERVER: Ip = Ip::new(10, 0, 0, 1);
    const CLIENT: Ip = Ip::new(192, 168, 1, 100);

    fn world() -> (Sim<Msg>, NodeId, NodeId) {
        let mut sim = Sim::new(0);
        let probe = sim.add_node(Box::new(Probe { got: vec![] }));
        let server = sim.add_node(Box::new(ServerNode::new(
            50,
            ServerConfig::standard(SERVER),
        )));
        (sim, probe, server)
    }

    fn send(sim: &mut Sim<Msg>, probe: NodeId, server: NodeId, l4: L4, len: usize) {
        let p = Packet {
            id: 1,
            src: CLIENT,
            dst: SERVER,
            ttl: 60,
            l4,
            payload_len: len,
            tag: PacketTag::Probe(3),
        };
        sim.inject(probe, server, SimTime::ZERO, Msg::Wire(p));
        sim.run_until_idle(100);
    }

    #[test]
    fn icmp_echo() {
        let (mut sim, probe, server) = world();
        send(
            &mut sim,
            probe,
            server,
            L4::Icmp {
                kind: IcmpKind::EchoRequest,
                ident: 9,
                seq: 4,
            },
            56,
        );
        let got = &sim.node::<Probe>(probe).got;
        assert_eq!(got.len(), 1);
        assert_eq!(
            got[0].l4,
            L4::Icmp {
                kind: IcmpKind::EchoReply,
                ident: 9,
                seq: 4
            }
        );
        assert_eq!(got[0].dst, CLIENT);
        assert_eq!(got[0].payload_len, 56);
        assert_eq!(got[0].tag, PacketTag::ProbeReply(3));
    }

    #[test]
    fn syn_to_open_port_gets_syn_ack() {
        let (mut sim, probe, server) = world();
        send(
            &mut sim,
            probe,
            server,
            L4::Tcp {
                src_port: 40000,
                dst_port: 80,
                flags: TcpFlags::SYN,
                seq: 100,
                ack: 0,
            },
            0,
        );
        let got = &sim.node::<Probe>(probe).got;
        assert_eq!(got.len(), 1);
        assert!(got[0].tcp_has(TcpFlags::SYN | TcpFlags::ACK));
        if let L4::Tcp { ack, dst_port, .. } = got[0].l4 {
            assert_eq!(ack, 101);
            assert_eq!(dst_port, 40000);
        } else {
            panic!("not tcp");
        }
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let (mut sim, probe, server) = world();
        send(
            &mut sim,
            probe,
            server,
            L4::Tcp {
                src_port: 40000,
                dst_port: 7777,
                flags: TcpFlags::SYN,
                seq: 5,
                ack: 0,
            },
            0,
        );
        let got = &sim.node::<Probe>(probe).got;
        assert_eq!(got.len(), 1);
        assert!(got[0].tcp_has(TcpFlags::RST));
        assert_eq!(sim.node::<ServerNode>(server).stats.rsts, 1);
    }

    #[test]
    fn http_data_probe_gets_data_response() {
        let (mut sim, probe, server) = world();
        send(
            &mut sim,
            probe,
            server,
            L4::Tcp {
                src_port: 40000,
                dst_port: 80,
                flags: TcpFlags::PSH | TcpFlags::ACK,
                seq: 200,
                ack: 1,
            },
            120,
        );
        let got = &sim.node::<Probe>(probe).got;
        assert_eq!(got.len(), 1);
        assert!(got[0].tcp_has(TcpFlags::PSH | TcpFlags::ACK));
        assert_eq!(got[0].payload_len, 220);
    }

    #[test]
    fn udp_echo_and_discard() {
        let (mut sim, probe, server) = world();
        send(
            &mut sim,
            probe,
            server,
            L4::Udp {
                src_port: 3000,
                dst_port: 7,
            },
            32,
        );
        assert_eq!(sim.node::<Probe>(probe).got.len(), 1);
        send(
            &mut sim,
            probe,
            server,
            L4::Udp {
                src_port: 3000,
                dst_port: 5001,
            },
            1470,
        );
        assert_eq!(sim.node::<Probe>(probe).got.len(), 1); // still 1
        let st = sim.node::<ServerNode>(server).stats;
        assert_eq!(st.udp_echoed, 1);
        assert_eq!(st.udp_discarded, 1);
        assert_eq!(st.udp_discarded_bytes, 1470);
    }

    #[test]
    fn wrong_destination_ignored() {
        let (mut sim, probe, server) = world();
        let p = Packet {
            id: 1,
            src: CLIENT,
            dst: Ip::new(10, 0, 0, 99),
            ttl: 60,
            l4: L4::Icmp {
                kind: IcmpKind::EchoRequest,
                ident: 1,
                seq: 1,
            },
            payload_len: 8,
            tag: PacketTag::Other,
        };
        sim.inject(probe, server, SimTime::ZERO, Msg::Wire(p));
        sim.run_until_idle(100);
        assert!(sim.node::<Probe>(probe).got.is_empty());
    }

    #[test]
    fn processing_delay_is_microsecond_scale() {
        let (mut sim, probe, server) = world();
        send(
            &mut sim,
            probe,
            server,
            L4::Icmp {
                kind: IcmpKind::EchoRequest,
                ident: 9,
                seq: 4,
            },
            56,
        );
        assert!(sim.now() < SimTime::from_millis(1));
        assert!(sim.now() > SimTime::ZERO);
        let _ = SimDuration::ZERO;
    }
}
