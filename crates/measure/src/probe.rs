//! The probe wire: how probe `n` of a session rides a packet, and which
//! probe a reply answers. Every phone-side tool (AcuteMon, its timeout
//! training and the baselines) builds its probes and matches its replies
//! here, so two sessions on one phone never claim each other's replies.

use wire::{IcmpKind, Packet, TcpFlags, L4};

/// Most probes one session can tell apart: probe indices ride in 16-bit
/// ports and ICMP sequence numbers.
pub const MAX_PROBES: u64 = 1 << 16;

/// The server port of HTTP probes.
pub const HTTP_PORT: u16 = 80;

/// The echo service port (UDP echo; TCP 7 is normally closed).
pub const ECHO_PORT: u16 = 7;

/// What a probe is (§4.1: "AcuteMon uses TCP control messages (TCP
/// SYN/ACK packets) and TCP data packets (HTTP request and response)…
/// easily extended to UDP and ICMP").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// TCP control messages: SYN → SYN/ACK (or RST from a closed port).
    TcpConnect,
    /// TCP data packets: HTTP request → HTTP response.
    TcpData,
    /// ICMP echo.
    Icmp,
    /// UDP echo.
    Udp,
}

/// How one session's probes ride the wire. TCP and UDP probe `n`
/// leaves from port `session + n` for the server's `port`; ICMP probe
/// `n` is sequence number `n` under ident `session`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeWire {
    /// The packet each probe is.
    pub kind: ProbeKind,
    /// The server port of TCP and UDP probes (unused by ICMP).
    pub port: u16,
    /// First source port, or the ICMP ident.
    pub session: u16,
}

impl ProbeWire {
    /// Probe `n`'s headers and payload length. Every attempt of probe `n`
    /// has the same shape, so a reply to any attempt names the same probe.
    pub fn request(&self, n: u32) -> (L4, usize) {
        let src_port = self.session.wrapping_add(n as u16);
        let tcp = |flags, ack| L4::Tcp {
            src_port,
            dst_port: self.port,
            flags,
            seq: 0x4000 + n,
            ack,
        };
        match self.kind {
            ProbeKind::TcpConnect => (tcp(TcpFlags::SYN, 0), 0),
            ProbeKind::TcpData => (tcp(TcpFlags::PSH | TcpFlags::ACK, 1), 120), // HTTP GET
            ProbeKind::Icmp => (
                L4::Icmp {
                    kind: IcmpKind::EchoRequest,
                    ident: self.session,
                    seq: n as u16,
                },
                56,
            ),
            ProbeKind::Udp => (
                L4::Udp {
                    src_port,
                    dst_port: self.port,
                },
                32,
            ),
        }
    }

    /// The probe a reply answers, if it answers one of the first `sent`.
    /// Any TCP segment back from the server's port counts; callers that
    /// care which one (SYN/ACK, RST, data) read its flags.
    pub fn probe_of(&self, packet: &Packet, sent: u32) -> Option<u32> {
        use ProbeKind::*;
        let n = match (self.kind, packet.l4) {
            (
                TcpConnect | TcpData,
                L4::Tcp {
                    src_port, dst_port, ..
                },
            )
            | (Udp, L4::Udp { src_port, dst_port }) => {
                if src_port != self.port {
                    return None;
                }
                dst_port.wrapping_sub(self.session)
            }
            (
                Icmp,
                L4::Icmp {
                    kind: IcmpKind::EchoReply,
                    ident,
                    seq,
                },
            ) if ident == self.session => seq,
            _ => return None,
        };
        (u32::from(n) < sent).then_some(u32::from(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netem::{ServerConfig, ServerNode};
    use simcore::{Ctx, Node, NodeId, Sim, SimTime};
    use wire::{Ip, Msg, PacketTag};

    const SERVER: Ip = Ip::new(10, 0, 0, 1);

    /// Collects whatever the server sends back.
    struct Client(Vec<Packet>);
    impl Node<Msg> for Client {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Wire(p) = msg {
                self.0.push(p);
            }
        }
    }

    /// The standard server's reply to `wire`'s probe `n`.
    fn reply(wire: ProbeWire, n: u32) -> Packet {
        let mut sim = Sim::new(1);
        let client = sim.add_node(Box::new(Client(Vec::new())));
        let server = sim.add_node(Box::new(ServerNode::new(
            50,
            ServerConfig::standard(SERVER),
        )));
        let (l4, payload_len) = wire.request(n);
        let probe = Packet {
            id: 1,
            src: Ip::new(192, 168, 1, 100),
            dst: SERVER,
            ttl: 64,
            l4,
            payload_len,
            tag: PacketTag::Probe(n),
        };
        sim.inject(client, server, SimTime::ZERO, Msg::Wire(probe));
        sim.run_until_idle(100);
        let got = &sim.node::<Client>(client).0;
        assert_eq!(got.len(), 1, "{wire:?} probe {n} got no reply");
        got[0]
    }

    #[test]
    fn every_kind_maps_its_reply_back_to_its_probe() {
        for (kind, port) in [
            (ProbeKind::TcpConnect, HTTP_PORT),
            (ProbeKind::TcpConnect, ECHO_PORT), // closed: answered by RST
            (ProbeKind::TcpData, HTTP_PORT),
            (ProbeKind::Icmp, 0),
            (ProbeKind::Udp, ECHO_PORT),
        ] {
            let wire = ProbeWire {
                kind,
                port,
                session: 0xFFF0, // source ports wrap past 65 535
            };
            let other = ProbeWire {
                session: 0x1000,
                ..wire
            };
            for n in [0, 5, 40, u32::from(u16::MAX)] {
                let r = reply(wire, n);
                assert_eq!(wire.probe_of(&r, n + 1), Some(n), "{wire:?} probe {n}");
                assert_eq!(
                    wire.probe_of(&r, n),
                    None,
                    "{wire:?}: probe {n} not sent yet"
                );
                assert_eq!(other.probe_of(&r, 100), None, "{wire:?}: other session");
            }
        }
    }
}
