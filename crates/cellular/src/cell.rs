//! The cellular NIC node: sits between a phone and the wired core, like
//! `phy80211::StaMacNode` + `ApNode` collapsed into the radio-bearer hop.
//!
//! Uplink packets pay the RRC uplink wake plus a base radio latency;
//! downlink packets pay the RRC downlink wake (DRX alignment or paging)
//! plus the base latency. The node is also the first-hop gateway —
//! decrementing TTL so AcuteMon's TTL-1 keep-awake traffic dies at the
//! eNodeB/P-GW instead of loading the path, exactly as on WiFi.

use netem::{trace_drop, FaultPlan, FaultState, FaultVerdict};
use simcore::{Ctx, DetRng, LatencyDist, Node, NodeId, SimDuration};
use wire::{IcmpKind, Ip, Msg, Packet, PacketIdGen, PacketTag, L4};

use crate::rrc::{Rrc, RrcConfig};

/// Cellular link configuration.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// RRC machine parameters.
    pub rrc: RrcConfig,
    /// Base one-way uplink radio latency, ms (scheduling grant + HARQ).
    pub ul_base: LatencyDist,
    /// Base one-way downlink radio latency, ms.
    pub dl_base: LatencyDist,
    /// Gateway address (source of ICMP errors).
    pub gateway_ip: Ip,
}

impl CellConfig {
    /// LTE defaults: ~6 ms base each way.
    pub fn lte(gateway_ip: Ip) -> CellConfig {
        CellConfig {
            rrc: RrcConfig::lte(),
            ul_base: LatencyDist::normal(6.0, 2.0, 2.0, 15.0),
            dl_base: LatencyDist::normal(6.0, 2.0, 2.0, 15.0),
            gateway_ip,
        }
    }

    /// UMTS/3G defaults: ~25 ms base each way.
    pub fn umts(gateway_ip: Ip) -> CellConfig {
        CellConfig {
            rrc: RrcConfig::umts(),
            ul_base: LatencyDist::normal(25.0, 6.0, 10.0, 50.0),
            dl_base: LatencyDist::normal(25.0, 6.0, 10.0, 50.0),
            gateway_ip,
        }
    }
}

/// Counters for the cellular node.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellStats {
    /// Uplink packets carried.
    pub uplink: u64,
    /// Downlink packets carried.
    pub downlink: u64,
    /// Packets dropped at the gateway (TTL).
    pub dropped_ttl: u64,
    /// Packets lost to the injected bearer fault process.
    pub dropped_fault: u64,
    /// ICMP errors generated.
    pub icmp_generated: u64,
}

/// The cellular NIC / first-hop node.
pub struct CellNode {
    cfg: CellConfig,
    host: NodeId,
    wired: NodeId,
    /// The RRC machine (public for state inspection in experiments).
    pub rrc: Rrc,
    rng: DetRng,
    ids: PacketIdGen,
    /// Injected radio-bearer faults (fading, handover loss), if any.
    fault: Option<FaultState>,
    /// Public counters.
    pub stats: CellStats,
}

impl CellNode {
    /// Create a cellular hop between `host` (the phone) and `wired` (the
    /// core-network next hop). `source` seeds the packet-id space and
    /// `rng` gives the node its own deterministic stream.
    pub fn new(source: u32, cfg: CellConfig, host: NodeId, wired: NodeId, rng: DetRng) -> CellNode {
        let rrc = Rrc::new(cfg.rrc.clone());
        CellNode {
            cfg,
            host,
            wired,
            rrc,
            rng,
            ids: PacketIdGen::new(source),
            fault: None,
            stats: CellStats::default(),
        }
    }

    /// Re-point the host (wiring-order helper).
    pub fn set_host(&mut self, host: NodeId) {
        self.host = host;
    }

    /// Install a fault plan on the radio bearer (replacing any previous
    /// one) — same contract as [`netem::LinkNode::set_fault_plan`]: the
    /// plan's own seed drives verdicts, independent of the engine RNG.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.fault = plan.is_active().then(|| FaultState::new(plan));
    }

    /// Bearer fault counters, if a plan is installed.
    pub fn fault_stats(&self) -> Option<netem::FaultStats> {
        self.fault.as_ref().map(|f| f.stats)
    }

    /// Run a packet through the bearer fault process (direction 0 =
    /// uplink, 1 = downlink). Returns `None` when the packet is lost.
    /// The RRC accounting has already happened by the time this is
    /// called: a lost uplink still promoted the radio (the RACH/grant
    /// exchange is what wakes it, not the payload's safe arrival), which
    /// is exactly why a retry after re-warming rides a connected bearer.
    fn apply_fault(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        dir: usize,
        packet_id: u64,
    ) -> Option<(u8, SimDuration)> {
        let verdict = match &mut self.fault {
            Some(fault) => fault.decide(dir, ctx.now()),
            None => FaultVerdict::Deliver {
                copies: 1,
                extra_delay: SimDuration::ZERO,
            },
        };
        match verdict {
            FaultVerdict::Drop(reason) => {
                self.stats.dropped_fault += 1;
                trace_drop(ctx, packet_id, "bearer", reason);
                None
            }
            FaultVerdict::Deliver {
                copies,
                extra_delay,
            } => Some((copies, extra_delay)),
        }
    }

    fn uplink(&mut self, ctx: &mut Ctx<'_, Msg>, mut packet: Packet) {
        // The packet crosses the radio bearer first (paying any RRC
        // promotion — this is precisely why TTL-1 keep-awake traffic
        // still warms the radio), and only then reaches the gateway,
        // where TTL is decremented.
        let now = ctx.now();
        let wake = self.rrc.uplink(now, &mut self.rng);
        let base = self.cfg.ul_base.sample(&mut self.rng);
        let Some((copies, extra_delay)) = self.apply_fault(ctx, 0, packet.id) else {
            return;
        };
        self.stats.uplink += 1;
        packet.ttl = packet.ttl.saturating_sub(1);
        if packet.ttl == 0 {
            self.stats.dropped_ttl += 1;
            let icmp = Packet {
                id: self.ids.next_id(),
                src: self.cfg.gateway_ip,
                dst: packet.src,
                ttl: 64,
                l4: L4::Icmp {
                    kind: IcmpKind::TimeExceeded,
                    ident: 0,
                    seq: 0,
                },
                payload_len: 28,
                tag: PacketTag::Other,
            };
            self.stats.icmp_generated += 1;
            // The error comes back down the bearer after the uplink
            // has completed (the radio is awake by then).
            let dl_base = self.cfg.dl_base.sample(&mut self.rng);
            ctx.send(
                self.host,
                wake + base + extra_delay + dl_base,
                Msg::Wire(icmp),
            );
            return;
        }
        for i in 0..copies {
            // Duplicates land a hair apart so ordering stays defined.
            let spread = SimDuration::from_micros(u64::from(i));
            ctx.send(
                self.wired,
                wake + base + extra_delay + spread,
                Msg::Wire(packet),
            );
        }
    }

    fn downlink(&mut self, ctx: &mut Ctx<'_, Msg>, packet: Packet) {
        let now = ctx.now();
        let wake = self.rrc.downlink(now, &mut self.rng);
        let base = self.cfg.dl_base.sample(&mut self.rng);
        let Some((copies, extra_delay)) = self.apply_fault(ctx, 1, packet.id) else {
            return;
        };
        self.stats.downlink += 1;
        for i in 0..copies {
            let spread = SimDuration::from_micros(u64::from(i));
            ctx.send(
                self.host,
                wake + base + extra_delay + spread,
                Msg::Wire(packet),
            );
        }
    }
}

impl Node<Msg> for CellNode {
    fn layer(&self) -> &'static str {
        "cell"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        let Msg::Wire(packet) = msg else {
            debug_assert!(false, "cell node got non-wire message");
            return;
        };
        if from == self.host {
            self.uplink(ctx, packet);
        } else {
            let mut packet = packet;
            packet.ttl = packet.ttl.saturating_sub(1);
            if packet.ttl == 0 {
                self.stats.dropped_ttl += 1;
                return;
            }
            self.downlink(ctx, packet);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Sim, SimDuration, SimTime};

    struct Sink {
        got: Vec<(SimTime, Packet)>,
    }
    impl Node<Msg> for Sink {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Wire(p) = msg {
                self.got.push((ctx.now(), p));
            }
        }
    }

    const PHONE: Ip = Ip::new(10, 100, 0, 2);
    const SERVER: Ip = Ip::new(10, 0, 0, 1);

    fn pkt(id: u64, src: Ip, dst: Ip, ttl: u8) -> Packet {
        Packet {
            id,
            src,
            dst,
            ttl,
            l4: L4::Udp {
                src_port: 1,
                dst_port: 2,
            },
            payload_len: 32,
            tag: PacketTag::Other,
        }
    }

    fn world() -> (Sim<Msg>, NodeId, NodeId, NodeId) {
        let mut sim = Sim::new(9);
        let host = sim.add_node(Box::new(Sink { got: vec![] }));
        let wired = sim.add_node(Box::new(Sink { got: vec![] }));
        let rng = sim.fork_rng(1);
        let cell = sim.add_node(Box::new(CellNode::new(
            200,
            CellConfig::lte(Ip::new(10, 100, 0, 1)),
            host,
            wired,
            rng,
        )));
        (sim, cell, host, wired)
    }

    #[test]
    fn cold_uplink_pays_promotion() {
        let (mut sim, cell, host, wired) = world();
        sim.inject(
            host,
            cell,
            SimTime::ZERO,
            Msg::Wire(pkt(1, PHONE, SERVER, 64)),
        );
        sim.run_until_idle(100);
        let got = &sim.node::<Sink>(wired).got;
        assert_eq!(got.len(), 1);
        // Idle promotion ≥ 60 ms + base.
        assert!(got[0].0 > SimTime::from_millis(60), "{:?}", got[0].0);
        assert_eq!(got[0].1.ttl, 63);
        assert_eq!(sim.node::<CellNode>(cell).rrc.stats.ul_wakes, 1);
    }

    #[test]
    fn warm_uplink_is_fast() {
        let (mut sim, cell, host, wired) = world();
        sim.inject(
            host,
            cell,
            SimTime::ZERO,
            Msg::Wire(pkt(1, PHONE, SERVER, 64)),
        );
        sim.run_until_idle(100);
        let t1 = sim.node::<Sink>(wired).got[0].0;
        // Second packet 20 ms after the first completes: connected.
        sim.inject(
            host,
            cell,
            t1 + SimDuration::from_millis(20),
            Msg::Wire(pkt(2, PHONE, SERVER, 64)),
        );
        sim.run_until_idle(100);
        let got = &sim.node::<Sink>(wired).got;
        let dt = got[1].0.saturating_since(t1 + SimDuration::from_millis(20));
        assert!(dt < SimDuration::from_millis(16), "{dt}");
    }

    #[test]
    fn cold_downlink_pays_paging() {
        let (mut sim, cell, host, wired) = world();
        sim.inject(
            wired,
            cell,
            SimTime::ZERO,
            Msg::Wire(pkt(1, SERVER, PHONE, 64)),
        );
        sim.run_until_idle(100);
        let got = &sim.node::<Sink>(host).got;
        assert_eq!(got.len(), 1);
        assert!(got[0].0 > SimTime::from_millis(80), "{:?}", got[0].0);
        assert_eq!(sim.node::<CellNode>(cell).rrc.stats.dl_wakes, 1);
    }

    #[test]
    fn ttl1_dies_at_gateway_with_icmp() {
        let (mut sim, cell, host, wired) = world();
        sim.inject(
            host,
            cell,
            SimTime::ZERO,
            Msg::Wire(pkt(1, PHONE, SERVER, 1)),
        );
        sim.run_until_idle(100);
        assert!(sim.node::<Sink>(wired).got.is_empty());
        let st = sim.node::<CellNode>(cell).stats;
        assert_eq!(st.dropped_ttl, 1);
        assert_eq!(st.icmp_generated, 1);
        // The ICMP error came back to the phone.
        let back = &sim.node::<Sink>(host).got;
        assert_eq!(back.len(), 1);
        assert!(matches!(
            back[0].1.l4,
            L4::Icmp {
                kind: IcmpKind::TimeExceeded,
                ..
            }
        ));
    }

    #[test]
    fn keepalive_keeps_rtt_low() {
        // Simulate AcuteMon-style keep-alive: uplink every 80 ms; then a
        // "probe" downlink arrives and must not pay paging.
        let (mut sim, cell, host, _wired) = world();
        for i in 0..50u64 {
            sim.inject(
                host,
                cell,
                SimTime::from_millis(i * 80),
                Msg::Wire(pkt(i, PHONE, SERVER, 2)),
            );
        }
        let t_probe = SimTime::from_millis(50 * 80 - 40);
        sim.inject(
            wired_id(&sim),
            cell,
            t_probe,
            Msg::Wire(pkt(999, SERVER, PHONE, 64)),
        );
        sim.run_until_idle(1000);
        let host_got = &sim.node::<Sink>(host).got;
        let probe = host_got
            .iter()
            .find(|(_, p)| p.id == 999)
            .expect("probe delivered");
        let dt = probe.0.saturating_since(t_probe);
        assert!(dt < SimDuration::from_millis(16), "{dt}");
    }

    fn wired_id(_sim: &Sim<Msg>) -> NodeId {
        NodeId::from_index(1)
    }
}
