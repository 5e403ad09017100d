//! `ping2` (Sui et al. \[34\]): server-side double ping.
//!
//! The server sends a first ping to wake the phone and, immediately upon
//! receiving its reply, a second ping whose RTT is taken as the
//! measurement. The paper's critique (§1): when the nRTT is long, the
//! phone falls back to the inactive state *before the second ping
//! arrives*, so the inflation is not fully removed — exactly what this
//! model reproduces (the gap between the phone's reply transmission and
//! the second ping's arrival is one full nRTT).
//!
//! This is a wired-side node (it probes *towards* the phone), relying on
//! the phone's kernel ICMP echo responder.

use simcore::{Ctx, Node, NodeId, SimDuration, SimTime};
use wire::{IcmpKind, Ip, Msg, Packet, PacketIdGen, PacketTag, L4};

/// ping2 configuration.
#[derive(Debug, Clone)]
pub struct Ping2Config {
    /// The prober's own address (a wired host).
    pub src: Ip,
    /// The phone's address.
    pub dst: Ip,
    /// Number of ping-pairs.
    pub pairs: u32,
    /// Interval between pairs.
    pub interval: SimDuration,
    /// ICMP ident.
    pub ident: u16,
}

impl Ping2Config {
    /// A standard ping2 run.
    pub fn new(src: Ip, dst: Ip, pairs: u32, interval: SimDuration) -> Ping2Config {
        Ping2Config {
            src,
            dst,
            pairs,
            interval,
            ident: 0x2222,
        }
    }
}

/// One measured pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ping2Record {
    /// Pair index.
    pub pair: u32,
    /// RTT of the first (wake-up) ping, ms.
    pub rtt1_ms: Option<f64>,
    /// RTT of the second (measurement) ping, ms.
    pub rtt2_ms: Option<f64>,
}

const TAG_NEXT_PAIR: u64 = 1;

/// The ping2 prober node (attach on the wired side, e.g. to the switch).
pub struct Ping2Prober {
    cfg: Ping2Config,
    /// The wired next hop (switch/link towards the phone).
    via: NodeId,
    ids: PacketIdGen,
    /// Completed and in-progress records.
    pub records: Vec<Ping2Record>,
    /// seq → send time of outstanding pings. Even seq = first ping of the
    /// pair, odd = second.
    outstanding: std::collections::HashMap<u16, SimTime>,
    sent_pairs: u32,
    metrics: crate::metrics::ProbeMetrics,
}

impl Ping2Prober {
    /// Create a prober; `source` seeds the packet-id space.
    pub fn new(source: u32, cfg: Ping2Config, via: NodeId) -> Ping2Prober {
        Ping2Prober {
            cfg,
            via,
            ids: PacketIdGen::new(source),
            records: Vec::new(),
            outstanding: std::collections::HashMap::new(),
            sent_pairs: 0,
            metrics: crate::metrics::ProbeMetrics::default(),
        }
    }

    /// Register this prober's telemetry as `measure.ping2.*` in `reg`.
    pub fn attach_metrics(&mut self, reg: &obs::Registry) {
        self.metrics = crate::metrics::ProbeMetrics::from_registry(reg, "ping2");
    }

    fn send_ping(&mut self, ctx: &mut Ctx<'_, Msg>, seq: u16) {
        let p = Packet {
            id: self.ids.next_id(),
            src: self.cfg.src,
            dst: self.cfg.dst,
            ttl: 64,
            l4: L4::Icmp {
                kind: IcmpKind::EchoRequest,
                ident: self.cfg.ident,
                seq,
            },
            payload_len: 56,
            tag: PacketTag::Probe(u32::from(seq)),
        };
        self.outstanding.insert(seq, ctx.now());
        self.metrics.on_send();
        ctx.send(self.via, SimDuration::ZERO, Msg::Wire(p));
    }

    fn start_pair(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let pair = self.sent_pairs;
        self.records.push(Ping2Record {
            pair,
            rtt1_ms: None,
            rtt2_ms: None,
        });
        self.send_ping(ctx, (pair * 2) as u16);
        self.sent_pairs += 1;
        if self.sent_pairs < self.cfg.pairs {
            ctx.set_timer(self.cfg.interval, TAG_NEXT_PAIR);
        }
    }
}

impl Node<Msg> for Ping2Prober {
    fn layer(&self) -> &'static str {
        "measure.ping2"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.start_pair(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        let Msg::Wire(packet) = msg else { return };
        let L4::Icmp {
            kind: IcmpKind::EchoReply,
            ident,
            seq,
        } = packet.l4
        else {
            return;
        };
        if ident != self.cfg.ident {
            return;
        }
        let Some(sent) = self.outstanding.remove(&seq) else {
            return;
        };
        let rtt = ctx.now().saturating_since(sent).as_ms_f64();
        self.metrics.on_reply(rtt);
        let pair = (seq / 2) as usize;
        let second = seq % 2 == 1;
        if let Some(rec) = self.records.get_mut(pair) {
            if second {
                rec.rtt2_ms = Some(rtt);
            } else {
                rec.rtt1_ms = Some(rtt);
                // First reply arrived: fire the measurement ping at once.
                self.send_ping(ctx, seq + 1);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        if tag == TAG_NEXT_PAIR {
            self.start_pair(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netem::{LinkNode, LinkParams};
    use phone::PhoneNode;
    use simcore::Sim;

    /// A mini-world: prober ↔ link ↔ phone; the phone's kernel answers
    /// the echoes.
    fn with_prober(rtt_ms: u64, pairs: u32) -> (Sim<Msg>, NodeId) {
        let mut sim = Sim::new(21);
        let link = sim.add_node(Box::new(LinkNode::new(LinkParams::delay_ms(rtt_ms / 2))));
        let phone = sim.add_node(Box::new(PhoneNode::new(
            1,
            phone::nexus5(),
            phone::wlan_ip(100),
            link,
        )));
        let prober = sim.add_node(Box::new(Ping2Prober::new(
            70,
            Ping2Config::new(
                phone::wired_ip(2),
                phone::wlan_ip(100),
                pairs,
                SimDuration::from_secs(1),
            ),
            link,
        )));
        sim.node_mut::<LinkNode>(link).connect(phone, prober);
        (sim, prober)
    }

    #[test]
    fn short_rtt_second_ping_is_clean() {
        let (mut sim, prober) = with_prober(20, 10);
        sim.run_until(SimTime::from_secs(15));
        let recs = &sim.node::<Ping2Prober>(prober).records;
        assert_eq!(recs.len(), 10);
        for r in recs {
            let r1 = r.rtt1_ms.unwrap();
            let r2 = r.rtt2_ms.unwrap();
            // First ping pays the RX wake; second is clean (20 < Tis).
            assert!(r2 < r1, "r1={r1} r2={r2}");
            assert!(r2 < 25.0, "r2={r2}");
        }
    }

    #[test]
    fn long_rtt_second_ping_still_inflated() {
        // With nRTT 120 ms > Tis=50ms, the phone's bus re-sleeps before
        // the second ping arrives — the paper's critique of ping2.
        let (mut sim, prober) = with_prober(120, 8);
        sim.run_until(SimTime::from_secs(20));
        let recs = &sim.node::<Ping2Prober>(prober).records;
        let mean2: f64 = recs.iter().filter_map(|r| r.rtt2_ms).sum::<f64>()
            / recs.iter().filter(|r| r.rtt2_ms.is_some()).count() as f64;
        assert!(mean2 > 120.0 + 8.0, "mean2={mean2}");
    }
}
