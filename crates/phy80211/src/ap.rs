//! The access point: beacons, TIM, per-station power-save buffering, and
//! L3 gateway duties (TTL handling for the first hop).
//!
//! The AP is where the PSM half of the paper's delay inflation happens:
//! when a station has announced PM=1, downlink packets are buffered and
//! only advertised in the next beacon's TIM, so a response can wait up to
//! `IB × (L+1)` (§3.2.2). The AP is also the first-hop gateway, which is
//! what makes AcuteMon's TTL=1 warm-up packets die here instead of loading
//! the measured path (§4.1).

use std::collections::VecDeque;

use obs::{Counter, Histogram, Registry};
use simcore::{Ctx, Node, NodeId, SimDuration, SimTime};
use wire::{Frame, FrameKind, IcmpKind, Ip, Mac, Msg, Packet, PacketIdGen, PacketTag, L4};

const TAG_BEACON: u64 = 1;

/// Telemetry handles for the AP (`phy.ap.*`). Defaults to disabled
/// no-op handles.
#[derive(Default)]
struct ApMetrics {
    beacons: Counter,
    forwarded_up: Counter,
    forwarded_down: Counter,
    ps_buffered: Counter,
    dropped: Counter,
    /// Time each PS-buffered packet waited at the AP before release, ms.
    /// This is the beacon-buffering half of ∆dv−n in the paper.
    ps_buffer_wait_ms: Histogram,
}

impl ApMetrics {
    fn from_registry(reg: &Registry) -> ApMetrics {
        ApMetrics {
            beacons: reg.counter("phy.ap.beacons"),
            forwarded_up: reg.counter("phy.ap.forwarded_up"),
            forwarded_down: reg.counter("phy.ap.forwarded_down"),
            ps_buffered: reg.counter("phy.ap.ps_buffered"),
            dropped: reg.counter("phy.ap.dropped"),
            ps_buffer_wait_ms: reg.histogram_ms("phy.ap.ps_buffer_wait_ms"),
        }
    }
}

/// AP configuration.
#[derive(Debug, Clone)]
pub struct ApConfig {
    /// BSSID / MAC of the AP radio.
    pub mac: Mac,
    /// LAN-side gateway IP (source of ICMP errors).
    pub lan_ip: Ip,
    /// Beacon period (102.4 ms by default).
    pub beacon_interval: SimDuration,
    /// Phase of the first beacon relative to simulation start. Experiments
    /// randomize this so probe arrivals are uniform in the beacon cycle.
    pub beacon_offset: SimDuration,
    /// Per-station power-save buffer capacity (packets).
    pub ps_buffer_cap: usize,
    /// Downlink queue cap: packets in flight towards the medium before
    /// drop-tail (models the AP's interface queue under congestion).
    pub downlink_cap: usize,
    /// Internal forwarding latency between the radio and the wired port.
    pub forward_latency: SimDuration,
}

impl Default for ApConfig {
    fn default() -> Self {
        ApConfig {
            mac: Mac::local(0),
            lan_ip: Ip::new(192, 168, 1, 1),
            beacon_interval: crate::config::default_beacon_interval(),
            beacon_offset: SimDuration::from_millis(13),
            ps_buffer_cap: 64,
            downlink_cap: 64,
            forward_latency: SimDuration::from_micros(200),
        }
    }
}

#[derive(Debug, Default)]
struct StaEntry {
    dozing: bool,
    /// U-APSD (WMM power save): buffered frames are released by the
    /// station's own uplink triggers instead of PS-Polls after TIM.
    uapsd: bool,
    /// Buffered downlink packets with their enqueue time, so the wait
    /// in the PS buffer can be measured at release.
    buffered: VecDeque<(SimTime, Packet)>,
}

/// Counters the AP accumulates.
#[derive(Debug, Clone, Default)]
pub struct ApStats {
    /// Beacons transmitted.
    pub beacons: u64,
    /// Uplink packets forwarded to the wire.
    pub forwarded_up: u64,
    /// Downlink packets sent straight to awake stations.
    pub forwarded_down: u64,
    /// Downlink packets buffered for dozing stations.
    pub ps_buffered: u64,
    /// Packets dropped: PS buffer full.
    pub dropped_ps_full: u64,
    /// Packets dropped: downlink queue full.
    pub dropped_queue_full: u64,
    /// Packets dropped: TTL expired at the gateway.
    pub dropped_ttl: u64,
    /// Packets dropped: no route/association for destination.
    pub dropped_no_route: u64,
    /// ICMP Time Exceeded messages generated.
    pub icmp_generated: u64,
}

/// The AP node.
pub struct ApNode {
    cfg: ApConfig,
    medium: NodeId,
    wired: NodeId,
    /// Associated stations and the addresses routed to them. A BSS
    /// holds a handful of stations, so both are scanned `Vec`s.
    stations: Vec<(Mac, StaEntry)>,
    ip_to_mac: Vec<(Ip, Mac)>,
    frame_ids: PacketIdGen,
    pkt_ids: PacketIdGen,
    in_flight: usize,
    /// Reused drain buffer for [`ApNode::flush_buffered`], so releasing
    /// a PS buffer allocates nothing once grown to its high-water mark.
    flush_scratch: Vec<(SimTime, Packet)>,
    /// Public counters.
    pub stats: ApStats,
    metrics: ApMetrics,
}

impl ApNode {
    /// Create an AP. `source` seeds its frame/packet id spaces; `medium`
    /// and `wired` are the radio side and the wired next hop.
    pub fn new(source: u32, cfg: ApConfig, medium: NodeId, wired: NodeId) -> ApNode {
        ApNode {
            cfg,
            medium,
            wired,
            stations: Vec::new(),
            ip_to_mac: Vec::new(),
            frame_ids: PacketIdGen::new(source),
            pkt_ids: PacketIdGen::new(source + 1),
            in_flight: 0,
            flush_scratch: Vec::new(),
            stats: ApStats::default(),
            metrics: ApMetrics::default(),
        }
    }

    /// Register this AP's telemetry (`phy.ap.*`) in `reg`. Without this
    /// call every metric handle is a disabled no-op.
    pub fn attach_metrics(&mut self, reg: &Registry) {
        self.metrics = ApMetrics::from_registry(reg);
    }

    /// Associate a station: its MAC joins the BSS and `ip` routes to it.
    /// Re-associating a MAC or address replaces its old entry.
    pub fn associate(&mut self, mac: Mac, ip: Ip) {
        self.join(mac, ip, StaEntry::default());
    }

    /// Associate a station that negotiated U-APSD: buffered downlink is
    /// released by its uplink triggers (a service period), not PS-Polls.
    pub fn associate_uapsd(&mut self, mac: Mac, ip: Ip) {
        let entry = StaEntry {
            uapsd: true,
            ..StaEntry::default()
        };
        self.join(mac, ip, entry);
    }

    fn join(&mut self, mac: Mac, ip: Ip, entry: StaEntry) {
        match self.station_mut(mac) {
            Some(old) => *old = entry,
            None => self.stations.push((mac, entry)),
        }
        match self.ip_to_mac.iter_mut().find(|(a, _)| *a == ip) {
            Some((_, old)) => *old = mac,
            None => self.ip_to_mac.push((ip, mac)),
        }
    }

    fn station(&self, mac: Mac) -> Option<&StaEntry> {
        self.stations
            .iter()
            .find(|(m, _)| *m == mac)
            .map(|(_, e)| e)
    }

    fn station_mut(&mut self, mac: Mac) -> Option<&mut StaEntry> {
        self.stations
            .iter_mut()
            .find(|(m, _)| *m == mac)
            .map(|(_, e)| e)
    }

    /// Whether the AP currently believes `mac` is dozing.
    pub fn is_dozing(&self, mac: Mac) -> bool {
        self.station(mac).is_some_and(|s| s.dozing)
    }

    /// Number of packets buffered for `mac`.
    pub fn buffered_for(&self, mac: Mac) -> usize {
        self.station(mac).map_or(0, |s| s.buffered.len())
    }

    fn tx_data(&mut self, ctx: &mut Ctx<'_, Msg>, dst: Mac, packet: Packet) {
        if self.in_flight >= self.cfg.downlink_cap {
            self.stats.dropped_queue_full += 1;
            self.metrics.dropped.inc();
            return;
        }
        self.in_flight += 1;
        let frame = Frame::data(self.frame_ids.next_id(), self.cfg.mac, dst, packet, false);
        ctx.send(self.medium, SimDuration::ZERO, Msg::MediumTx(frame));
    }

    fn downlink(&mut self, ctx: &mut Ctx<'_, Msg>, packet: Packet) {
        let Some(&(_, mac)) = self.ip_to_mac.iter().find(|(ip, _)| *ip == packet.dst) else {
            self.stats.dropped_no_route += 1;
            self.metrics.dropped.inc();
            return;
        };
        if self.is_dozing(mac) {
            let cap = self.cfg.ps_buffer_cap;
            let now = ctx.now();
            let entry = self.station_mut(mac).expect("associated");
            if entry.buffered.len() >= cap {
                self.stats.dropped_ps_full += 1;
                self.metrics.dropped.inc();
            } else {
                entry.buffered.push_back((now, packet));
                self.stats.ps_buffered += 1;
                self.metrics.ps_buffered.inc();
            }
        } else {
            self.stats.forwarded_down += 1;
            self.metrics.forwarded_down.inc();
            self.tx_data(ctx, mac, packet);
        }
    }

    fn set_dozing(&mut self, ctx: &mut Ctx<'_, Msg>, mac: Mac, dozing: bool) {
        let became_awake = match self.station_mut(mac) {
            Some(entry) if entry.dozing != dozing => {
                entry.dozing = dozing;
                !dozing
            }
            _ => false,
        };
        // PM=0 means the station receives normally again: anything still
        // buffered goes out now (this also realizes the U-APSD service
        // period, since a trigger frame carries PM=0 in this model).
        if became_awake {
            self.flush_buffered(ctx, mac);
        }
    }

    fn flush_buffered(&mut self, ctx: &mut Ctx<'_, Msg>, mac: Mac) {
        // Drain through the reused scratch buffer (detached from `self`
        // so `tx_data` can borrow freely): no allocation at steady state.
        let mut drained = std::mem::take(&mut self.flush_scratch);
        drained.clear();
        if let Some(e) = self.station_mut(mac) {
            drained.extend(e.buffered.drain(..));
        }
        let now = ctx.now();
        for &(enqueued, packet) in &drained {
            let waited_ms = now.saturating_since(enqueued).as_nanos() as f64 / 1e6;
            self.metrics.ps_buffer_wait_ms.observe(waited_ms);
            // The span covers exactly the interval the histogram observes,
            // so per-trace `ap_buffer` totals reconcile with the metric.
            let tracer = ctx.tracer();
            if let Some(tc) = tracer.packet_ctx(packet.id) {
                let span = tracer.span(
                    tc.trace,
                    Some(tc.root),
                    "ap_buffer",
                    "mac",
                    enqueued.as_nanos(),
                    now.as_nanos(),
                );
                tracer.attr(span, "waited_ms", waited_ms);
            }
            self.stats.forwarded_down += 1;
            self.metrics.forwarded_down.inc();
            self.tx_data(ctx, mac, packet);
        }
        drained.clear();
        self.flush_scratch = drained;
    }

    fn gateway_uplink(&mut self, ctx: &mut Ctx<'_, Msg>, mut packet: Packet) {
        // First-hop router: decrement TTL.
        packet.ttl = packet.ttl.saturating_sub(1);
        if packet.ttl == 0 {
            self.stats.dropped_ttl += 1;
            self.metrics.dropped.inc();
            // RFC 792: time exceeded back to the sender. This goes
            // through the normal downlink path (and is itself subject to
            // PSM buffering).
            let icmp = Packet {
                id: self.pkt_ids.next_id(),
                src: self.cfg.lan_ip,
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
            self.downlink(ctx, icmp);
            return;
        }
        self.stats.forwarded_up += 1;
        self.metrics.forwarded_up.inc();
        ctx.send(self.wired, self.cfg.forward_latency, Msg::Wire(packet));
    }
}

impl Node<Msg> for ApNode {
    fn layer(&self) -> &'static str {
        "phy.ap"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.set_timer(self.cfg.beacon_offset, TAG_BEACON);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::AirRx(frame) => {
                if frame.dst != self.cfg.mac {
                    return;
                }
                match frame.kind {
                    FrameKind::Data { packet, pm } => {
                        self.set_dozing(ctx, frame.src, pm);
                        self.gateway_uplink(ctx, packet);
                    }
                    FrameKind::NullData { pm } => {
                        self.set_dozing(ctx, frame.src, pm);
                    }
                    FrameKind::PsPoll => {
                        // The poller is awake and retrieving.
                        self.set_dozing(ctx, frame.src, false);
                        self.flush_buffered(ctx, frame.src);
                    }
                    FrameKind::Beacon { .. } | FrameKind::Ack => {}
                }
            }
            Msg::Wire(packet) => {
                let _ = from;
                // From the wired segment: route down. The AP is also a
                // router here; decrement TTL.
                let mut packet = packet;
                packet.ttl = packet.ttl.saturating_sub(1);
                if packet.ttl == 0 {
                    self.stats.dropped_ttl += 1;
                    self.metrics.dropped.inc();
                    return;
                }
                self.downlink(ctx, packet);
            }
            Msg::TxDone { .. } | Msg::TxFailed { .. } => {
                self.in_flight = self.in_flight.saturating_sub(1);
            }
            other => debug_assert!(false, "ap got unexpected message {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        debug_assert_eq!(tag, TAG_BEACON);
        // U-APSD stations' delivery-enabled traffic is not advertised in
        // the TIM; it waits for their trigger frames instead. The TIM is
        // built inline (`wire::Tim` is a fixed-capacity array) and
        // sorted in place — the beacon tick stays off the heap.
        let mut tim: wire::Tim = self
            .stations
            .iter()
            .filter(|(_, e)| !e.buffered.is_empty() && !e.uapsd)
            .map(|(m, _)| *m)
            .collect();
        tim.as_mut_slice().sort_unstable(); // deterministic TIM order
        let beacon = Frame::beacon(self.frame_ids.next_id(), self.cfg.mac, tim);
        ctx.send(self.medium, SimDuration::ZERO, Msg::MediumTx(beacon));
        self.stats.beacons += 1;
        self.metrics.beacons.inc();
        ctx.set_timer(self.cfg.beacon_interval, TAG_BEACON);
    }
}

/// Helper: the time of the next beacon strictly after `now`, given the
/// offset/interval schedule. Used by analyzers, not by the AP itself.
pub fn next_beacon_after(now: SimTime, offset: SimDuration, interval: SimDuration) -> SimTime {
    let start = SimTime::ZERO + offset;
    if now < start {
        return start;
    }
    let elapsed = now.saturating_since(start).as_nanos();
    let k = elapsed / interval.as_nanos() + 1;
    start + SimDuration::from_nanos(k * interval.as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::MediumNode;
    use crate::MediumConfig;
    use simcore::Sim;

    struct Sink {
        wired: Vec<(SimTime, Packet)>,
        air: Vec<(SimTime, Frame)>,
    }
    impl Node<Msg> for Sink {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            match msg {
                Msg::Wire(p) => self.wired.push((ctx.now(), p)),
                Msg::AirRx(f) => self.air.push((ctx.now(), f)),
                _ => {}
            }
        }
    }

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

    const PHONE_IP: Ip = Ip::new(192, 168, 1, 100);
    const SERVER_IP: Ip = Ip::new(10, 0, 0, 1);

    struct World {
        sim: Sim<Msg>,
        ap: NodeId,
        medium: NodeId,
        wired: NodeId,
        radio: NodeId,
    }

    fn setup() -> World {
        let mut sim = Sim::new(3);
        let wired = sim.add_node(Box::new(Sink {
            wired: vec![],
            air: vec![],
        }));
        let radio = sim.add_node(Box::new(Sink {
            wired: vec![],
            air: vec![],
        }));
        let medium = sim.add_node(Box::new(MediumNode::new(MediumConfig::default())));
        let ap = sim.add_node(Box::new(ApNode::new(
            10,
            ApConfig::default(),
            medium,
            wired,
        )));
        sim.node_mut::<MediumNode>(medium).attach(ap);
        sim.node_mut::<MediumNode>(medium).attach(radio);
        sim.node_mut::<ApNode>(ap)
            .associate(Mac::local(1), PHONE_IP);
        World {
            sim,
            ap,
            medium,
            wired,
            radio,
        }
    }

    fn uplink_frame(p: Packet, pm: bool) -> Msg {
        Msg::AirRx(Frame::data(500, Mac::local(1), Mac::local(0), p, pm))
    }

    #[test]
    fn beacons_are_periodic() {
        let mut w = setup();
        w.sim.run_until(SimTime::from_millis(500));
        let beacons: Vec<SimTime> = w
            .sim
            .node::<Sink>(w.radio)
            .air
            .iter()
            .filter(|(_, f)| matches!(f.kind, FrameKind::Beacon { .. }))
            .map(|(t, _)| *t)
            .collect();
        // offset 13 ms, interval 102.4 ms -> beacons near 13, 115.4, 217.8, 320.2, 422.6
        assert_eq!(beacons.len(), 5);
        let gap = beacons[1] - beacons[0];
        assert!((gap.as_ms_f64() - 102.4).abs() < 1.0, "gap={gap}");
        assert_eq!(w.sim.node::<ApNode>(w.ap).stats.beacons, 5);
    }

    #[test]
    fn uplink_decrements_ttl_and_forwards() {
        let mut w = setup();
        let medium = w.medium;
        w.sim.inject(
            medium,
            w.ap,
            SimTime::from_millis(1),
            uplink_frame(pkt(1, PHONE_IP, SERVER_IP, 64), false),
        );
        w.sim.run_until(SimTime::from_millis(2));
        let up = &w.sim.node::<Sink>(w.wired).wired;
        assert_eq!(up.len(), 1);
        assert_eq!(up[0].1.ttl, 63);
    }

    #[test]
    fn ttl_one_dies_at_gateway_with_icmp_back() {
        let mut w = setup();
        let medium = w.medium;
        w.sim.inject(
            medium,
            w.ap,
            SimTime::from_millis(1),
            uplink_frame(pkt(1, PHONE_IP, SERVER_IP, 1), false),
        );
        w.sim.run_until(SimTime::from_millis(5));
        assert!(w.sim.node::<Sink>(w.wired).wired.is_empty());
        let st = &w.sim.node::<ApNode>(w.ap).stats;
        assert_eq!(st.dropped_ttl, 1);
        assert_eq!(st.icmp_generated, 1);
        // The ICMP error went back down over the air to the phone.
        let air = &w.sim.node::<Sink>(w.radio).air;
        let icmp = air
            .iter()
            .filter_map(|(_, f)| f.packet())
            .find(|p| {
                matches!(
                    p.l4,
                    L4::Icmp {
                        kind: IcmpKind::TimeExceeded,
                        ..
                    }
                )
            })
            .expect("icmp error frame");
        assert_eq!(icmp.dst, PHONE_IP);
    }

    #[test]
    fn downlink_to_awake_station_goes_straight_out() {
        let mut w = setup();
        let wired = w.wired;
        w.sim.inject(
            wired,
            w.ap,
            SimTime::from_millis(1),
            Msg::Wire(pkt(9, SERVER_IP, PHONE_IP, 64)),
        );
        w.sim.run_until(SimTime::from_millis(3));
        let air = &w.sim.node::<Sink>(w.radio).air;
        let data: Vec<_> = air.iter().filter(|(_, f)| f.packet().is_some()).collect();
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].1.packet().unwrap().ttl, 63);
        assert_eq!(w.sim.node::<ApNode>(w.ap).stats.forwarded_down, 1);
    }

    #[test]
    fn downlink_to_dozing_station_waits_for_ps_poll() {
        let mut w = setup();
        let medium = w.medium;
        let wired = w.wired;
        // Station announces doze.
        w.sim.inject(
            medium,
            w.ap,
            SimTime::from_millis(1),
            Msg::AirRx(Frame::null_data(501, Mac::local(1), Mac::local(0), true)),
        );
        // A downlink packet arrives.
        w.sim.inject(
            wired,
            w.ap,
            SimTime::from_millis(2),
            Msg::Wire(pkt(9, SERVER_IP, PHONE_IP, 64)),
        );
        w.sim.run_until(SimTime::from_millis(10));
        assert!(w.sim.node::<ApNode>(w.ap).is_dozing(Mac::local(1)));
        assert_eq!(w.sim.node::<ApNode>(w.ap).buffered_for(Mac::local(1)), 1);
        // Nothing on the air yet (except possibly nothing at all).
        let air_data = w
            .sim
            .node::<Sink>(w.radio)
            .air
            .iter()
            .filter(|(_, f)| f.packet().is_some())
            .count();
        assert_eq!(air_data, 0);
        // Next beacon advertises it in the TIM.
        w.sim.run_until(SimTime::from_millis(14));
        let has_tim = w.sim.node::<Sink>(w.radio).air.iter().any(
            |(_, f)| matches!(&f.kind, FrameKind::Beacon { tim } if tim.contains(&Mac::local(1))),
        );
        assert!(has_tim, "TIM should advertise buffered traffic");
        // PS-Poll retrieves it.
        w.sim.inject(
            medium,
            w.ap,
            SimTime::from_millis(15),
            Msg::AirRx(Frame::ps_poll(502, Mac::local(1), Mac::local(0))),
        );
        w.sim.run_until(SimTime::from_millis(20));
        let air_data = w
            .sim
            .node::<Sink>(w.radio)
            .air
            .iter()
            .filter(|(_, f)| f.packet().is_some())
            .count();
        assert_eq!(air_data, 1);
        assert_eq!(w.sim.node::<ApNode>(w.ap).buffered_for(Mac::local(1)), 0);
        assert!(!w.sim.node::<ApNode>(w.ap).is_dozing(Mac::local(1)));
    }

    #[test]
    fn pm_bit_on_data_frame_updates_state() {
        let mut w = setup();
        let medium = w.medium;
        w.sim.inject(
            medium,
            w.ap,
            SimTime::from_millis(1),
            uplink_frame(pkt(1, PHONE_IP, SERVER_IP, 64), true),
        );
        w.sim.run_until(SimTime::from_millis(2));
        assert!(w.sim.node::<ApNode>(w.ap).is_dozing(Mac::local(1)));
        w.sim.inject(
            medium,
            w.ap,
            SimTime::from_millis(3),
            uplink_frame(pkt(2, PHONE_IP, SERVER_IP, 64), false),
        );
        w.sim.run_until(SimTime::from_millis(4));
        assert!(!w.sim.node::<ApNode>(w.ap).is_dozing(Mac::local(1)));
    }

    #[test]
    fn ps_buffer_cap_drops() {
        let mut w = setup();
        let medium = w.medium;
        let wired = w.wired;
        w.sim.inject(
            medium,
            w.ap,
            SimTime::from_millis(1),
            Msg::AirRx(Frame::null_data(501, Mac::local(1), Mac::local(0), true)),
        );
        for i in 0..100 {
            w.sim.inject(
                wired,
                w.ap,
                SimTime::from_millis(2),
                Msg::Wire(pkt(100 + i, SERVER_IP, PHONE_IP, 64)),
            );
        }
        w.sim.run_until(SimTime::from_millis(5));
        let st = &w.sim.node::<ApNode>(w.ap).stats;
        assert_eq!(st.ps_buffered, 64);
        assert_eq!(st.dropped_ps_full, 36);
    }

    #[test]
    fn unknown_destination_dropped() {
        let mut w = setup();
        let wired = w.wired;
        w.sim.inject(
            wired,
            w.ap,
            SimTime::from_millis(1),
            Msg::Wire(pkt(9, SERVER_IP, Ip::new(192, 168, 1, 250), 64)),
        );
        w.sim.run_until(SimTime::from_millis(3));
        assert_eq!(w.sim.node::<ApNode>(w.ap).stats.dropped_no_route, 1);
    }

    #[test]
    fn next_beacon_after_schedule() {
        let offset = SimDuration::from_millis(13);
        let interval = SimDuration::from_millis(100);
        assert_eq!(
            next_beacon_after(SimTime::ZERO, offset, interval),
            SimTime::from_millis(13)
        );
        assert_eq!(
            next_beacon_after(SimTime::from_millis(13), offset, interval),
            SimTime::from_millis(113)
        );
        assert_eq!(
            next_beacon_after(SimTime::from_millis(200), offset, interval),
            SimTime::from_millis(213)
        );
    }
}
