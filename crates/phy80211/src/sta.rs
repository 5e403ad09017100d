//! Station-side 802.11 MAC with power-save logic.
//!
//! A [`StaMacNode`] sits between a host (the phone's WNIC driver, or a load
//! generator) and the [`MediumNode`](crate::MediumNode). The host hands it
//! IP packets as `Msg::Wire`; it frames them, manages the PSM state machine
//! (CAM ⇄ doze, PM-bit signaling, beacon listening, PS-Poll retrieval), and
//! delivers received packets back to the host as `Msg::Wire`.
//!
//! The PSM behaviours implemented here are exactly the ones §3.2.2 blames
//! for nRTT inflation:
//!
//! * **adaptive PSM**: after `Tip` of inactivity the station announces PM=1
//!   and dozes; a response buffered at the AP then waits for a beacon.
//! * **listen interval**: while dozing only every `(L+1)`-th beacon is
//!   received.
//! * **static PSM**: doze immediately after every exchange (ablation).

use obs::{Hist, Snapshot};
use simcore::{Ctx, Node, NodeId, SimDuration, SimTime, TimerId};
use wire::{Frame, FrameKind, Mac, Msg, Packet, PacketIdGen};

use crate::config::{PsmPolicy, StaConfig};

const TAG_PSM_TIMEOUT: u64 = 1;
const TAG_WAKE_TX: u64 = 2;

/// Power state of the station.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Constantly awake mode.
    Cam,
    /// Dozing; receiver off except at listened beacons.
    Doze,
}

/// Counters accumulated by a station over a run.
#[derive(Debug, Clone, Default)]
pub struct StaStats {
    /// Data frames transmitted.
    pub data_tx: u64,
    /// Data frames received and delivered to the host.
    pub data_rx: u64,
    /// PS-Poll frames sent.
    pub ps_polls: u64,
    /// Beacons actually processed while dozing.
    pub beacons_heard: u64,
    /// Beacons missed due to the miss probability.
    pub beacons_missed: u64,
    /// Doze → CAM transitions.
    pub wakeups: u64,
    /// Total time spent in CAM, ns (energy proxy).
    pub cam_ns: u64,
    /// Length of each completed CAM (awake) stint, ms; its count is the
    /// number of CAM → doze transitions.
    pub cam_interval_ms: Hist,
}

/// The station MAC node.
pub struct StaMacNode {
    /// This station's MAC address.
    pub mac: Mac,
    /// The AP it is associated with.
    pub ap: Mac,
    cfg: StaConfig,
    medium: NodeId,
    host: NodeId,
    state: PowerState,
    state_since: SimTime,
    psm_timer: Option<TimerId>,
    /// Beacons seen since entering doze (for the listen interval).
    doze_beacons: u32,
    /// Packets waiting for the radio to finish its doze→CAM turn-on,
    /// with their enqueue times (for `psm_wake` span attribution).
    wake_queue: Vec<(SimTime, Packet)>,
    waking: bool,
    ids: PacketIdGen,
    /// Public counters.
    pub stats: StaStats,
}

impl StaMacNode {
    /// Create a station. `source` seeds the frame-id space and must be
    /// unique per traffic source.
    pub fn new(
        source: u32,
        mac: Mac,
        ap: Mac,
        cfg: StaConfig,
        medium: NodeId,
        host: NodeId,
    ) -> StaMacNode {
        let state = PowerState::Cam;
        StaMacNode {
            mac,
            ap,
            cfg,
            medium,
            host,
            state,
            state_since: SimTime::ZERO,
            psm_timer: None,
            doze_beacons: 0,
            wake_queue: Vec::new(),
            waking: false,
            ids: PacketIdGen::new(source),
            stats: StaStats::default(),
        }
    }

    /// Write this station's counts into `out` as `phy.sta.*`.
    pub fn export(&self, out: &mut Snapshot) {
        let s = &self.stats;
        out.add_counter("phy.sta.data_tx", s.data_tx);
        out.add_counter("phy.sta.data_rx", s.data_rx);
        out.add_counter("phy.sta.ps_polls", s.ps_polls);
        out.add_counter("phy.sta.beacons_heard", s.beacons_heard);
        out.add_counter("phy.sta.beacons_missed", s.beacons_missed);
        out.add_counter("phy.sta.wakeups", s.wakeups);
        out.add_counter("phy.sta.dozes", s.cam_interval_ms.count());
        out.merge_histogram("phy.sta.cam_interval_ms", &s.cam_interval_ms);
    }

    /// Current power state.
    pub fn power_state(&self) -> PowerState {
        self.state
    }

    /// Re-point the host (used when the host node is created after the
    /// station, which is the usual construction order in the testbed).
    pub fn set_host(&mut self, host: NodeId) {
        self.host = host;
    }

    fn set_state(&mut self, ctx: &mut Ctx<'_, Msg>, next: PowerState) {
        if self.state == next {
            return;
        }
        if self.state == PowerState::Cam {
            let stint = ctx.now().saturating_since(self.state_since);
            self.stats.cam_ns += stint.as_nanos();
            self.stats
                .cam_interval_ms
                .observe(stint.as_nanos() as f64 / 1e6);
        }
        if next == PowerState::Cam {
            self.stats.wakeups += 1;
        }
        self.state = next;
        self.state_since = ctx.now();
        if next == PowerState::Doze {
            self.doze_beacons = 0;
        }
    }

    /// Reset (or start) the adaptive-PSM inactivity timer. Called on every
    /// data activity, mirroring how real drivers re-arm their timeout.
    fn poke_activity(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let Some(t) = self.psm_timer.take() {
            ctx.cancel_timer(t);
        }
        match &self.cfg.psm {
            PsmPolicy::CamAlways => {}
            PsmPolicy::Adaptive { timeout } => {
                let tip = timeout.sample(ctx.rng());
                self.psm_timer = Some(ctx.set_timer(tip, TAG_PSM_TIMEOUT));
            }
            PsmPolicy::Static => {
                // Static PSM: doze as soon as the exchange is over. Model
                // as a very short inactivity window.
                self.psm_timer = Some(ctx.set_timer(SimDuration::from_millis(2), TAG_PSM_TIMEOUT));
            }
        }
    }

    fn transmit_data(&mut self, ctx: &mut Ctx<'_, Msg>, packet: Packet) {
        let frame = Frame::data(self.ids.next_id(), self.mac, self.ap, packet, false);
        self.stats.data_tx += 1;
        ctx.send(self.medium, SimDuration::ZERO, Msg::MediumTx(frame));
        self.poke_activity(ctx);
    }

    fn send_null(&mut self, ctx: &mut Ctx<'_, Msg>, pm: bool) {
        let frame = Frame::null_data(self.ids.next_id(), self.mac, self.ap, pm);
        ctx.send(self.medium, SimDuration::ZERO, Msg::MediumTx(frame));
    }

    fn send_ps_poll(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let frame = Frame::ps_poll(self.ids.next_id(), self.mac, self.ap);
        self.stats.ps_polls += 1;
        ctx.send(self.medium, SimDuration::ZERO, Msg::MediumTx(frame));
    }

    fn on_beacon(&mut self, ctx: &mut Ctx<'_, Msg>, tim: &[Mac]) {
        if self.state != PowerState::Doze {
            return; // In CAM the beacon carries no actionable state.
        }
        // Listen interval: wake for every (L+1)-th beacon only.
        let due = self
            .doze_beacons
            .is_multiple_of(self.cfg.listen_interval + 1);
        self.doze_beacons += 1;
        if !due {
            return;
        }
        // Even a due beacon can be missed (clock drift, deep sleep).
        if ctx.rng().chance(self.cfg.beacon_miss_prob) {
            self.stats.beacons_missed += 1;
            return;
        }
        self.stats.beacons_heard += 1;
        if self.cfg.uapsd {
            // U-APSD: no PS-Poll; deliveries ride our own triggers.
            return;
        }
        if tim.contains(&self.mac) {
            // Traffic buffered for us: wake, poll, and stay awake for the
            // delivery (adaptive PSM then re-arms from the delivery).
            self.set_state(ctx, PowerState::Cam);
            self.send_ps_poll(ctx);
            self.poke_activity(ctx);
        }
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_, Msg>, packet: Packet) {
        // Delivery from the AP. If we believed ourselves dozing, the AP won
        // a race; accept and wake (receiving costs nothing extra here).
        self.set_state(ctx, PowerState::Cam);
        self.stats.data_rx += 1;
        ctx.send(self.host, SimDuration::ZERO, Msg::Wire(packet));
        self.poke_activity(ctx);
    }
}

impl Node<Msg> for StaMacNode {
    fn layer(&self) -> &'static str {
        "phy.sta"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.state_since = ctx.now();
        self.poke_activity(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            // Host asks us to transmit an IP packet.
            Msg::Wire(packet) if from == self.host => {
                match self.state {
                    PowerState::Cam => self.transmit_data(ctx, packet),
                    PowerState::Doze => {
                        // Radio must turn on first (Tprom of the PSM side,
                        // distinct from the SDIO promotion in the phone).
                        self.wake_queue.push((ctx.now(), packet));
                        if !self.waking {
                            self.waking = true;
                            let cost = self.cfg.wake_tx.sample(ctx.rng());
                            ctx.set_timer(cost, TAG_WAKE_TX);
                        }
                    }
                }
            }
            // A packet delivered by a stale route (host mismatch) is a bug.
            Msg::Wire(_) => debug_assert!(false, "wire packet from non-host {from:?}"),
            Msg::AirRx(frame) => {
                if let FrameKind::Beacon { tim } = &frame.kind {
                    if frame.src == self.ap {
                        self.on_beacon(ctx, tim);
                    }
                    return;
                }
                if frame.dst != self.mac {
                    return; // Not for us; a real NIC filters in hardware.
                }
                if self.state == PowerState::Doze {
                    // Receiver is off: unicast to a dozing STA is lost at
                    // the MAC (the AP should not have sent it).
                    return;
                }
                if let FrameKind::Data { packet, .. } = frame.kind {
                    self.on_data(ctx, packet);
                }
            }
            Msg::TxDone { .. } | Msg::TxFailed { .. } => {
                // Transmission bookkeeping only; activity was poked at
                // enqueue time.
            }
            other => debug_assert!(false, "sta got unexpected message {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        match tag {
            TAG_PSM_TIMEOUT => {
                self.psm_timer = None;
                if self.state == PowerState::Cam {
                    // Announce and doze (adaptive PSM demotion).
                    self.send_null(ctx, true);
                    self.set_state(ctx, PowerState::Doze);
                }
            }
            TAG_WAKE_TX => {
                self.waking = false;
                self.set_state(ctx, PowerState::Cam);
                // Radio on: announce wake implicitly via the data frame's
                // PM=0 bit and flush everything queued during turn-on.
                let now = ctx.now();
                // Detach the queue while flushing (transmit_data needs
                // `&mut self`), then hand the emptied buffer back so its
                // capacity is reused — wakes allocate nothing at steady
                // state.
                let mut queued = std::mem::take(&mut self.wake_queue);
                for &(enqueued, packet) in &queued {
                    let tracer = ctx.tracer();
                    if let Some(tc) = tracer.packet_ctx(packet.id) {
                        tracer.span(
                            tc.trace,
                            Some(tc.root),
                            "psm_wake",
                            "mac",
                            enqueued.as_nanos(),
                            now.as_nanos(),
                        );
                    }
                    self.transmit_data(ctx, packet);
                }
                queued.clear();
                // Keep anything queued again mid-flush, then reuse the
                // warm buffer.
                queued.append(&mut self.wake_queue);
                self.wake_queue = queued;
            }
            _ => unreachable!("unknown sta timer tag {tag}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PsmPolicy;
    use crate::medium::MediumNode;
    use crate::MediumConfig;
    use simcore::{LatencyDist, Sim};
    use wire::{Ip, PacketTag, L4};

    struct Host {
        delivered: Vec<(SimTime, Packet)>,
    }
    impl Node<Msg> for Host {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Wire(p) = msg {
                self.delivered.push((ctx.now(), p));
            }
        }
    }

    /// Records all frames it hears (stands in for the AP + sniffer).
    struct Listener {
        frames: Vec<(SimTime, Frame)>,
    }
    impl Node<Msg> for Listener {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::AirRx(f) = msg {
                self.frames.push((ctx.now(), f));
            }
        }
    }

    fn pkt(id: u64) -> Packet {
        Packet {
            id,
            src: Ip::new(192, 168, 1, 100),
            dst: Ip::new(10, 0, 0, 1),
            ttl: 64,
            l4: L4::Udp {
                src_port: 5,
                dst_port: 7,
            },
            payload_len: 20,
            tag: PacketTag::Other,
        }
    }

    struct World {
        sim: Sim<Msg>,
        sta: NodeId,
        host: NodeId,
        listener: NodeId,
        medium: NodeId,
    }

    fn setup(psm: PsmPolicy) -> World {
        let mut sim = Sim::new(11);
        let host = sim.add_node(Box::new(Host { delivered: vec![] }));
        let listener = sim.add_node(Box::new(Listener { frames: vec![] }));
        let medium = sim.add_node(Box::new(MediumNode::new(MediumConfig::default())));
        let cfg = StaConfig {
            psm,
            listen_interval: 0,
            wake_tx: LatencyDist::fixed(1.0),
            beacon_miss_prob: 0.0,
            uapsd: false,
        };
        let sta = sim.add_node(Box::new(StaMacNode::new(
            1,
            Mac::local(1),
            Mac::local(0),
            cfg,
            medium,
            host,
        )));
        sim.node_mut::<MediumNode>(medium).attach(sta);
        sim.node_mut::<MediumNode>(medium).attach(listener);
        World {
            sim,
            sta,
            host,
            listener,
            medium,
        }
    }

    fn adaptive(tip_ms: f64) -> PsmPolicy {
        PsmPolicy::Adaptive {
            timeout: LatencyDist::fixed(tip_ms),
        }
    }

    #[test]
    fn cam_sta_transmits_immediately() {
        let mut w = setup(PsmPolicy::CamAlways);
        w.sim
            .inject(w.host, w.sta, SimTime::from_millis(1), Msg::Wire(pkt(5)));
        w.sim.run_until_idle(100);
        let frames = &w.sim.node::<Listener>(w.listener).frames;
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].1.packet().unwrap().id, 5);
        // No wake cost: on the air well within a millisecond of injection.
        assert!(frames[0].0 < SimTime::from_millis(2));
        assert_eq!(w.sim.node::<StaMacNode>(w.sta).stats.data_tx, 1);
    }

    #[test]
    fn adaptive_sta_dozes_after_timeout_and_announces() {
        let mut w = setup(adaptive(40.0));
        w.sim
            .inject(w.host, w.sta, SimTime::from_millis(1), Msg::Wire(pkt(5)));
        w.sim.run_until(SimTime::from_millis(100));
        assert_eq!(
            w.sim.node::<StaMacNode>(w.sta).power_state(),
            PowerState::Doze
        );
        // The doze announcement (null PM=1) is on the air.
        let frames = &w.sim.node::<Listener>(w.listener).frames;
        assert!(frames
            .iter()
            .any(|(_, f)| matches!(f.kind, FrameKind::NullData { pm: true })));
    }

    #[test]
    fn tx_from_doze_pays_wake_cost() {
        let mut w = setup(adaptive(10.0));
        // Let it doze (on_start arms the timer; no traffic).
        w.sim.run_until(SimTime::from_millis(50));
        assert_eq!(
            w.sim.node::<StaMacNode>(w.sta).power_state(),
            PowerState::Doze
        );
        let t0 = SimTime::from_millis(60);
        w.sim.inject(w.host, w.sta, t0, Msg::Wire(pkt(9)));
        w.sim.run_until(SimTime::from_millis(70));
        let frames = &w.sim.node::<Listener>(w.listener).frames;
        let data = frames
            .iter()
            .find(|(_, f)| f.packet().is_some())
            .expect("data frame aired");
        // Wake cost is a fixed 1 ms in this config.
        assert!(data.0 >= t0 + SimDuration::from_millis(1), "{:?}", data.0);
        assert_eq!(w.sim.node::<StaMacNode>(w.sta).stats.wakeups, 1);
    }

    #[test]
    fn dozing_sta_ignores_unicast_data() {
        let mut w = setup(adaptive(5.0));
        w.sim.run_until(SimTime::from_millis(30)); // dozing now
        let f = Frame::data(77, Mac::local(0), Mac::local(1), pkt(3), false);
        let medium = w.medium;
        w.sim
            .inject(medium, w.sta, SimTime::from_millis(31), Msg::AirRx(f));
        w.sim.run_until_idle(100);
        assert!(w.sim.node::<Host>(w.host).delivered.is_empty());
    }

    #[test]
    fn beacon_with_tim_triggers_ps_poll_and_wake() {
        let mut w = setup(adaptive(5.0));
        w.sim.run_until(SimTime::from_millis(30)); // dozing
        let beacon = Frame::beacon(100, Mac::local(0), vec![Mac::local(1)]);
        let medium = w.medium;
        w.sim
            .inject(medium, w.sta, SimTime::from_millis(31), Msg::AirRx(beacon));
        w.sim.run_until(SimTime::from_millis(33));
        assert_eq!(
            w.sim.node::<StaMacNode>(w.sta).power_state(),
            PowerState::Cam
        );
        assert_eq!(w.sim.node::<StaMacNode>(w.sta).stats.ps_polls, 1);
        // The PS-Poll actually went to the medium and was heard.
        let frames = &w.sim.node::<Listener>(w.listener).frames;
        assert!(frames
            .iter()
            .any(|(_, f)| matches!(f.kind, FrameKind::PsPoll)));
    }

    #[test]
    fn beacon_without_tim_leaves_sta_dozing() {
        let mut w = setup(adaptive(5.0));
        w.sim.run_until(SimTime::from_millis(30));
        let beacon = Frame::beacon(100, Mac::local(0), vec![Mac::local(9)]);
        let medium = w.medium;
        w.sim
            .inject(medium, w.sta, SimTime::from_millis(31), Msg::AirRx(beacon));
        w.sim.run_until_idle(100);
        assert_eq!(
            w.sim.node::<StaMacNode>(w.sta).power_state(),
            PowerState::Doze
        );
        assert_eq!(w.sim.node::<StaMacNode>(w.sta).stats.beacons_heard, 1);
    }

    #[test]
    fn listen_interval_skips_beacons() {
        let mut w = setup(adaptive(5.0));
        // Rebuild with L=2 (wake every 3rd beacon).
        let medium = w.medium;
        let host = w.host;
        let cfg = StaConfig {
            psm: adaptive(5.0),
            listen_interval: 2,
            wake_tx: LatencyDist::fixed(1.0),
            beacon_miss_prob: 0.0,
            uapsd: false,
        };
        let sta2 = w.sim.add_node(Box::new(StaMacNode::new(
            2,
            Mac::local(2),
            Mac::local(0),
            cfg,
            medium,
            host,
        )));
        w.sim.node_mut::<MediumNode>(medium).attach(sta2);
        w.sim.run_until(SimTime::from_millis(30)); // both asleep
        for i in 0..6u64 {
            let b = Frame::beacon(200 + i, Mac::local(0), vec![]);
            w.sim.inject(
                medium,
                sta2,
                SimTime::from_millis(31 + i * 10),
                Msg::AirRx(b),
            );
        }
        w.sim.run_until_idle(1000);
        // Of 6 beacons, beacons 0 and 3 are listened to.
        assert_eq!(w.sim.node::<StaMacNode>(sta2).stats.beacons_heard, 2);
    }

    #[test]
    fn received_data_resets_doze_and_reaches_host() {
        let mut w = setup(adaptive(50.0));
        let f = Frame::data(55, Mac::local(0), Mac::local(1), pkt(8), false);
        let medium = w.medium;
        w.sim
            .inject(medium, w.sta, SimTime::from_millis(1), Msg::AirRx(f));
        w.sim.run_until(SimTime::from_millis(2));
        let host = &w.sim.node::<Host>(w.host).delivered;
        assert_eq!(host.len(), 1);
        assert_eq!(host[0].1.id, 8);
        assert_eq!(w.sim.node::<StaMacNode>(w.sta).stats.data_rx, 1);
    }

    #[test]
    fn static_psm_dozes_quickly_after_exchange() {
        let mut w = setup(PsmPolicy::Static);
        w.sim
            .inject(w.host, w.sta, SimTime::from_millis(1), Msg::Wire(pkt(5)));
        w.sim.run_until(SimTime::from_millis(10));
        assert_eq!(
            w.sim.node::<StaMacNode>(w.sta).power_state(),
            PowerState::Doze
        );
    }

    #[test]
    fn cam_time_accounting_grows() {
        let mut w = setup(adaptive(20.0));
        w.sim
            .inject(w.host, w.sta, SimTime::from_millis(1), Msg::Wire(pkt(5)));
        w.sim.run_until(SimTime::from_millis(200));
        let stats = &w.sim.node::<StaMacNode>(w.sta).stats;
        // CAM from 0 to ~21 ms (first doze) plus nothing after.
        assert!(stats.cam_ns > 15_000_000, "cam_ns={}", stats.cam_ns);
        assert!(stats.cam_ns < 60_000_000, "cam_ns={}", stats.cam_ns);
    }
}
