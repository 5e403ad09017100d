//! The iPerf-style load generator (§4.3): a UDP blaster that saturates the
//! WiFi channel with cross traffic.
//!
//! The paper's load generator opens 10 connections, each sending UDP at
//! 2.5 Mbit/s — 25 Mbit/s aggregate into a channel whose UDP capacity is
//! below 20 Mbit/s, so the network congests and the observed goodput drops
//! to ~10 Mbit/s. The blaster reproduces the aggregate arrival process:
//! `flows` staggered constant-bit-rate streams of `payload` bytes.

use simcore::{Ctx, Node, NodeId, SimDuration, SimTime};
use wire::{Ip, Msg, Packet, PacketIdGen, PacketTag, L4};

/// Load generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Source IP (the wireless load generator).
    pub src: Ip,
    /// Destination IP (the fixed load server).
    pub dst: Ip,
    /// Destination UDP port (a discard port on the load server).
    pub dst_port: u16,
    /// Number of parallel flows.
    pub flows: u32,
    /// Per-flow rate in Mbit/s.
    pub rate_mbps_per_flow: f64,
    /// UDP payload bytes per datagram.
    pub payload: usize,
    /// When to start blasting.
    pub start: SimTime,
    /// When to stop.
    pub stop: SimTime,
}

impl LoadConfig {
    /// The paper's cross-traffic setting: 10 × 2.5 Mbit/s UDP, 1470-byte
    /// datagrams.
    pub fn paper_cross_traffic(src: Ip, dst: Ip, stop: SimTime) -> LoadConfig {
        LoadConfig {
            src,
            dst,
            dst_port: 5001,
            flows: 10,
            rate_mbps_per_flow: 2.5,
            payload: 1470,
            start: SimTime::ZERO,
            stop,
        }
    }
}

/// The blaster node: emits `Msg::Wire` packets to its NIC (`via`, usually
/// a CAM-mode `phy80211::StaMacNode`) on a CBR schedule per flow.
///
/// Emission is batched: a single timer fires once per gap period and
/// schedules the whole period's datagrams (all flows) at their exact
/// per-packet instants via `send_at`. Packet ids, emission times and
/// emission order are those of one timer per datagram — the unit tests
/// pin that against a per-packet reference emitter — at one timer
/// dispatch per period instead of one per packet.
pub struct UdpBlasterNode {
    cfg: LoadConfig,
    via: NodeId,
    ids: PacketIdGen,
    /// Packets emitted.
    pub sent: u64,
}

impl UdpBlasterNode {
    /// Create a blaster; `source` seeds the packet-id space.
    pub fn new(source: u32, cfg: LoadConfig, via: NodeId) -> UdpBlasterNode {
        UdpBlasterNode {
            cfg,
            via,
            ids: PacketIdGen::new(source),
            sent: 0,
        }
    }

    fn gap(&self) -> SimDuration {
        // Per-flow inter-packet gap for the configured CBR.
        let bits = self.cfg.payload as f64 * 8.0;
        let secs = bits / (self.cfg.rate_mbps_per_flow * 1e6);
        SimDuration::from_nanos((secs * 1e9) as u64)
    }

    /// Per-flow start offset within a gap period (flows are staggered
    /// across one gap so the aggregate is a smooth CBR rather than
    /// synchronized bursts). Offsets are distinct, so two flows never
    /// emit at the same nanosecond — which is what lets the batched
    /// emission reproduce the per-packet emission order exactly.
    fn offset(&self, flow: u32) -> SimDuration {
        SimDuration::from_nanos(
            self.gap().as_nanos() * u64::from(flow) / u64::from(self.cfg.flows.max(1)),
        )
    }

    fn next_packet(&mut self, flow: u32) -> Packet {
        self.sent += 1;
        Packet {
            id: self.ids.next_id(),
            src: self.cfg.src,
            dst: self.cfg.dst,
            ttl: 64,
            l4: L4::Udp {
                src_port: 30_000 + flow as u16,
                dst_port: self.cfg.dst_port,
            },
            payload_len: self.cfg.payload,
            tag: PacketTag::CrossTraffic,
        }
    }

    /// Called once per gap period at the period start; schedules every
    /// flow's datagram for this period at its exact per-packet instant.
    /// Flow offsets ascend, so ids are assigned in emission-time order —
    /// the same id↔packet mapping one timer per datagram produces.
    fn emit_period(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let period_start = ctx.now();
        for flow in 0..self.cfg.flows {
            let at = period_start + self.offset(flow);
            if at >= self.cfg.stop {
                break;
            }
            let packet = self.next_packet(flow);
            ctx.send_at(self.via, at, Msg::Wire(packet));
        }
    }
}

impl Node<Msg> for UdpBlasterNode {
    fn layer(&self) -> &'static str {
        "netem.load"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // One timer per gap period, firing at period start.
        let delay = self.cfg.start.saturating_since(ctx.now());
        ctx.set_timer(delay, 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {
        // Ignore deliveries (ICMP errors, echoes): a blaster only sends.
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        if ctx.now() >= self.cfg.stop {
            return;
        }
        let gap = self.gap();
        self.emit_period(ctx);
        ctx.set_timer(gap, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;

    struct Counter {
        n: u64,
        bytes: u64,
        first: Option<SimTime>,
        last: Option<SimTime>,
    }
    impl Node<Msg> for Counter {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Wire(p) = msg {
                self.n += 1;
                self.bytes += p.payload_len as u64;
                self.first.get_or_insert(ctx.now());
                self.last = Some(ctx.now());
            }
        }
    }

    #[test]
    fn aggregate_rate_matches_config() {
        let mut sim = Sim::new(0);
        let sink = sim.add_node(Box::new(Counter {
            n: 0,
            bytes: 0,
            first: None,
            last: None,
        }));
        let cfg = LoadConfig::paper_cross_traffic(
            Ip::new(192, 168, 1, 101),
            Ip::new(10, 0, 0, 2),
            SimTime::from_secs(1),
        );
        let blaster = sim.add_node(Box::new(UdpBlasterNode::new(60, cfg, sink)));
        sim.run_until(SimTime::from_secs(1));
        let c = sim.node::<Counter>(sink);
        // 25 Mbit/s for 1 s = 3.125 MB ≈ 2126 datagrams of 1470 B.
        let mbps = c.bytes as f64 * 8.0 / 1e6;
        assert!((mbps - 25.0).abs() < 1.5, "rate={mbps} Mbps");
        assert_eq!(c.n, sim.node::<UdpBlasterNode>(blaster).sent);
    }

    #[test]
    fn stops_at_configured_time() {
        let mut sim = Sim::new(0);
        let sink = sim.add_node(Box::new(Counter {
            n: 0,
            bytes: 0,
            first: None,
            last: None,
        }));
        let mut cfg = LoadConfig::paper_cross_traffic(
            Ip::new(192, 168, 1, 101),
            Ip::new(10, 0, 0, 2),
            SimTime::from_millis(100),
        );
        cfg.start = SimTime::from_millis(50);
        sim.add_node(Box::new(UdpBlasterNode::new(60, cfg, sink)));
        sim.run_until(SimTime::from_secs(1));
        let c = sim.node::<Counter>(sink);
        assert!(c.first.unwrap() >= SimTime::from_millis(50));
        assert!(c.last.unwrap() <= SimTime::from_millis(101));
        assert!(c.n > 0);
    }

    /// The reference emitter: every datagram off its own per-flow timer
    /// (one timer dispatch per packet), built from the blaster's own
    /// gap, offsets and packet factory.
    struct PerPacketBlaster(UdpBlasterNode);

    impl Node<Msg> for PerPacketBlaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for flow in 0..self.0.cfg.flows {
                let first = self.0.cfg.start + self.0.offset(flow);
                let delay = first.saturating_since(ctx.now());
                ctx.set_timer(delay, u64::from(flow));
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {}

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
            if ctx.now() >= self.0.cfg.stop {
                return;
            }
            let packet = self.0.next_packet(tag as u32);
            ctx.send(self.0.via, SimDuration::ZERO, Msg::Wire(packet));
            ctx.set_timer(self.0.gap(), tag);
        }
    }

    /// Record of everything a sink can observe about an emission.
    fn observed(per_packet: bool, start_ms: u64, stop_ms: u64) -> Vec<(SimTime, u64, u16, u64)> {
        struct Recorder {
            seen: Vec<(SimTime, u64, u16, u64)>,
        }
        impl Node<Msg> for Recorder {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
                if let Msg::Wire(p) = msg {
                    let port = match p.l4 {
                        wire::L4::Udp { src_port, .. } => src_port,
                        _ => 0,
                    };
                    self.seen
                        .push((ctx.now(), p.id, port, p.payload_len as u64));
                }
            }
        }
        let mut sim = Sim::new(0);
        let sink = sim.add_node(Box::new(Recorder { seen: vec![] }));
        let mut cfg = LoadConfig::paper_cross_traffic(
            Ip::new(192, 168, 1, 101),
            Ip::new(10, 0, 0, 2),
            SimTime::from_millis(stop_ms),
        );
        cfg.start = SimTime::from_millis(start_ms);
        let blaster = UdpBlasterNode::new(60, cfg, sink);
        if per_packet {
            sim.add_node(Box::new(PerPacketBlaster(blaster)));
        } else {
            sim.add_node(Box::new(blaster));
        }
        sim.run_until(SimTime::from_secs(10));
        sim.node::<Recorder>(sink).seen.clone()
    }

    #[test]
    fn batched_emissions_are_identical_to_per_packet() {
        // Batched emission must reproduce the per-packet emission
        // process exactly: same instants, same packet ids, same flow
        // (src port) order — including around start/stop edges.
        for (start_ms, stop_ms) in [(0, 200), (50, 103), (7, 8)] {
            let reference = observed(true, start_ms, stop_ms);
            let batched = observed(false, start_ms, stop_ms);
            assert!(!reference.is_empty());
            assert_eq!(
                reference, batched,
                "batched emission stream diverged (start={start_ms}ms stop={stop_ms}ms)"
            );
        }
    }

    #[test]
    fn flows_are_staggered() {
        let mut sim = Sim::new(0);
        let sink = sim.add_node(Box::new(Counter {
            n: 0,
            bytes: 0,
            first: None,
            last: None,
        }));
        let cfg = LoadConfig::paper_cross_traffic(
            Ip::new(192, 168, 1, 101),
            Ip::new(10, 0, 0, 2),
            SimTime::from_millis(20),
        );
        sim.add_node(Box::new(UdpBlasterNode::new(60, cfg, sink)));
        sim.run_until(SimTime::from_millis(20));
        // 10 flows at 2.5 Mbps / 1470 B: per-flow gap 4.7 ms; in 20 ms we
        // expect roughly 10 * (20/4.7) ≈ 42 packets, spread out.
        let c = sim.node::<Counter>(sink);
        assert!(c.n >= 30 && c.n <= 60, "n={}", c.n);
    }
}
