//! The shared wireless medium: a simplified DCF (CSMA/CA) model.
//!
//! All radios (AP, phone NIC, load-generator NICs) and all sniffers attach
//! to one [`MediumNode`]. Each transmitter has its own bounded interface
//! queue (drop-tail, like a real NIC); when the channel goes idle the
//! medium picks one backlogged transmitter uniformly at random (the
//! contention winner), waits DIFS + a random backoff drawn from that
//! frame's contention window, then occupies the channel for preamble +
//! payload airtime (+ SIFS + ACK for unicast frames). When other
//! transmitters were also backlogged, the transmission may collide: the
//! airtime is wasted and the frame retries with a doubled contention
//! window up to a retry limit.
//!
//! This reproduces the two behaviours the paper's evaluation depends on:
//! a bounded, per-station queueing/contention delay of a few ms under
//! iPerf cross traffic (Fig. 8b, Fig. 9) — with the load generator's own
//! queue overflowing, not the victims' — and ~100–400 µs per-frame
//! service time when idle.

use std::collections::VecDeque;

use netem::{FaultPlan, FaultState, FaultVerdict};
use obs::Registry;
use simcore::{Ctx, Node, NodeId, SimDuration};
use wire::{Frame, FrameKind, Mac, Msg, PacketTag};

use crate::config::MediumConfig;

const TAG_TX_START: u64 = 1;
const TAG_TX_END: u64 = 2;
const TAG_COLLISION_END: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    /// Waiting out DIFS + backoff before the selected frame airs.
    Deferring,
    /// A frame (or a collision) currently occupies the channel.
    Busy,
}

struct PendingTx {
    from: NodeId,
    frame: Frame,
    retries: u32,
    cw: u32,
}

/// How an attached node hears the channel.
///
/// On a real shared channel every radio physically receives every frame
/// and filters in hardware; simulating that faithfully costs one event
/// per (frame × listener). The delivery policy moves the hardware
/// filter into the medium: a station that would discard a frame anyway
/// never gets the event. This is the single biggest event-count lever
/// on the dispatch hot path — under iPerf cross traffic the per-frame
/// listener fan-out dominates the simulation's event budget.
#[derive(Debug, Clone, Copy)]
struct Listener {
    node: NodeId,
    /// `None`: promiscuous (hears every frame, like a monitor-mode
    /// NIC). `Some(mac)`: hears only frames addressed to `mac` or to
    /// broadcast — the receive-address filter of an associated station.
    filter: Option<Mac>,
    /// Whether this node transmits and consumes `TxDone` / `TxFailed`.
    /// Stations whose MAC state machine ignores confirmations opt out
    /// and the medium skips those events entirely.
    feedback: bool,
    /// Whether cross-traffic data frames (`PacketTag::CrossTraffic`)
    /// are delivered. Fleet sniffers opt out: the capture index never
    /// queries them, and at paper load they are ~97% of all frames.
    cross_traffic: bool,
}

impl Listener {
    fn hears(&self, frame: &Frame) -> bool {
        if let Some(mac) = self.filter {
            if frame.dst != mac && !frame.dst.is_broadcast() {
                return false;
            }
        }
        if !self.cross_traffic {
            if let FrameKind::Data { packet, .. } = &frame.kind {
                if packet.tag == PacketTag::CrossTraffic {
                    return false;
                }
            }
        }
        true
    }
}

/// Statistics the medium accumulates over a run.
#[derive(Debug, Clone, Default)]
pub struct MediumStats {
    /// Frames delivered successfully.
    pub delivered: u64,
    /// Collision events.
    pub collisions: u64,
    /// Channel-corruption (CRC/no-ACK) events.
    pub crc_failures: u64,
    /// Frames dropped at the retry limit.
    pub dropped_retry: u64,
    /// Frames dropped because the sender's interface queue was full.
    pub dropped_queue_full: u64,
    /// Frames silently eaten by the injected fault layer after the MAC
    /// exchange completed (models retry exhaustion the transmitter never
    /// sees, or drops on the AP's wired bridge).
    pub dropped_fault: u64,
    /// Total airtime occupied, in ns.
    pub busy_ns: u64,
}

/// The shared-channel node.
pub struct MediumNode {
    cfg: MediumConfig,
    /// Per-sender interface queue cap (drop-tail), frames.
    pub queue_cap: usize,
    /// All attached radios and sniffers; every completed frame is
    /// delivered to each listener whose policy hears it, except the
    /// transmitter (see [`Listener`]).
    listeners: Vec<Listener>,
    /// Per-sender queues, in first-seen order (deterministic).
    queues: Vec<(NodeId, VecDeque<PendingTx>)>,
    /// The frame that won contention (set while Deferring/Busy).
    in_service: Option<PendingTx>,
    state: State,
    /// Injected post-MAC faults, if any: applied to *data* frames after a
    /// successful channel exchange, so the transmitter still gets TxDone
    /// and recovery has to come from the application layer.
    fault: Option<FaultState>,
    /// Public counters.
    pub stats: MediumStats,
}

impl MediumNode {
    /// Create a medium with the given configuration.
    pub fn new(cfg: MediumConfig) -> MediumNode {
        MediumNode {
            cfg,
            queue_cap: 64,
            listeners: Vec::new(),
            queues: Vec::new(),
            in_service: None,
            state: State::Idle,
            fault: None,
            stats: MediumStats::default(),
        }
    }

    /// Install a fault plan applied to data frames after the MAC exchange
    /// (replacing any previous one). Because the loss is post-MAC, the
    /// transmitter still receives `TxDone` — the model of an exhausted
    /// retry chain or an AP bridge drop — so only application-level
    /// retry/re-warm can recover.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.fault = plan.is_active().then(|| FaultState::new(plan));
    }

    /// Register the fault layer's counters as `fault.<label>.*` in `reg`.
    /// Call after [`MediumNode::set_fault_plan`].
    pub fn attach_fault_metrics(&mut self, reg: &Registry, label: &str) {
        if let Some(fault) = &mut self.fault {
            fault.attach_metrics(reg, label);
        }
    }

    /// Fault-layer counters, if a plan is installed.
    pub fn fault_stats(&self) -> Option<netem::FaultStats> {
        self.fault.as_ref().map(|f| f.stats)
    }

    /// Attach a radio or sniffer promiscuously: it hears every frame it
    /// did not send and receives TX confirmations. The conservative
    /// default — use [`MediumNode::attach_station`] /
    /// [`MediumNode::attach_monitor`] when the receiver's filtering
    /// policy is known, so the medium can skip events the receiver
    /// would discard.
    pub fn attach(&mut self, node: NodeId) {
        self.attach_listener(Listener {
            node,
            filter: None,
            feedback: true,
            cross_traffic: true,
        });
    }

    /// Attach an associated station with a receive-address filter: it
    /// hears only frames addressed to `mac` or to broadcast. `feedback`
    /// controls whether the medium sends it `TxDone` / `TxFailed` —
    /// pass `false` for stations whose MAC state machine ignores TX
    /// confirmations (the medium then skips those events entirely).
    pub fn attach_station(&mut self, node: NodeId, mac: Mac, feedback: bool) {
        self.attach_listener(Listener {
            node,
            filter: Some(mac),
            feedback,
            cross_traffic: true,
        });
    }

    /// Attach a monitor-mode sniffer: promiscuous, never transmits (no
    /// TX feedback). `cross_traffic: false` additionally skips
    /// cross-traffic data frames — for captures whose consumers only
    /// ever index probe/management frames.
    pub fn attach_monitor(&mut self, node: NodeId, cross_traffic: bool) {
        self.attach_listener(Listener {
            node,
            filter: None,
            feedback: false,
            cross_traffic,
        });
    }

    fn attach_listener(&mut self, listener: Listener) {
        match self.listeners.iter_mut().find(|l| l.node == listener.node) {
            Some(existing) => *existing = listener,
            None => self.listeners.push(listener),
        }
    }

    /// Whether `node` opted into TX confirmations (unattached senders
    /// get them — the conservative default).
    fn wants_feedback(&self, node: NodeId) -> bool {
        self.listeners
            .iter()
            .find(|l| l.node == node)
            .is_none_or(|l| l.feedback)
    }

    /// Total frames currently queued (excluding the one in service).
    pub fn backlog(&self) -> usize {
        self.queues.iter().map(|(_, q)| q.len()).sum()
    }

    fn airtime(&self, frame: &Frame) -> SimDuration {
        let rate = match frame.kind {
            wire::FrameKind::Data { .. } => self.cfg.data_rate_mbps,
            _ => self.cfg.mgmt_rate_mbps,
        };
        let mut us = self.cfg.preamble_us + self.cfg.payload_us(frame.air_bytes(), rate);
        if frame.wants_ack() {
            us += self.cfg.sifs_us
                + self.cfg.preamble_us
                + self
                    .cfg
                    .payload_us(self.cfg.ack_bytes, self.cfg.mgmt_rate_mbps);
        }
        SimDuration::from_us_f64(us)
    }

    fn enqueue(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, frame: Frame) {
        let cap = self.queue_cap;
        let feedback = self.wants_feedback(from);
        let queue = match self.queues.iter_mut().find(|(n, _)| *n == from) {
            Some((_, q)) => q,
            None => {
                self.queues.push((from, VecDeque::new()));
                &mut self.queues.last_mut().expect("just pushed").1
            }
        };
        if queue.len() >= cap {
            self.stats.dropped_queue_full += 1;
            if feedback {
                let frame_id = frame.id;
                ctx.send(from, SimDuration::ZERO, Msg::TxFailed { frame_id });
            }
            return;
        }
        queue.push_back(PendingTx {
            from,
            frame,
            retries: 0,
            cw: self.cfg.cw_min,
        });
        self.maybe_defer(ctx);
    }

    /// Pick the contention winner: uniformly random among backlogged
    /// senders (a fair-DCF approximation). Counts, then walks to the
    /// pick, so a contention round allocates nothing.
    fn select_winner(&mut self, ctx: &mut Ctx<'_, Msg>) -> Option<PendingTx> {
        let backlogged = self.queues.iter().filter(|(_, q)| !q.is_empty()).count();
        if backlogged == 0 {
            return None;
        }
        let pick = ctx.rng().index(backlogged);
        let (_, queue) = self
            .queues
            .iter_mut()
            .filter(|(_, q)| !q.is_empty())
            .nth(pick)
            .expect("pick is below the backlogged count");
        queue.pop_front()
    }

    fn maybe_defer(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.state != State::Idle {
            return;
        }
        if self.in_service.is_none() {
            self.in_service = self.select_winner(ctx);
        }
        let Some(tx) = &self.in_service else { return };
        self.state = State::Deferring;
        let slots = ctx.rng().uniform_u64(0, u64::from(tx.cw));
        let defer = SimDuration::from_us_f64(self.cfg.difs_us + slots as f64 * self.cfg.slot_us);
        ctx.set_timer(defer, TAG_TX_START);
    }

    fn start_tx(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let tx = self.in_service.as_ref().expect("deferring without frame");
        // A station never collides with its own queued frames — it defers
        // between them. Only *other* backlogged senders contend.
        let me = tx.from;
        let contenders = self
            .queues
            .iter()
            .filter(|(n, q)| *n != me && !q.is_empty())
            .count()
            .min(8) as u32;
        let tx = self.in_service.as_ref().expect("deferring without frame");
        let frame_air = self.airtime(&tx.frame);
        let p_collide = if contenders == 0 {
            0.0
        } else {
            1.0 - (1.0 - self.cfg.collision_unit_prob).powi(contenders as i32)
        };
        let collide = ctx.rng().chance(p_collide);
        // Channel corruption (no ACK) looks like a collision to the
        // transmitter: the airtime is spent, then it retries.
        let corrupted = !collide && ctx.rng().chance(self.cfg.frame_error_rate);
        self.state = State::Busy;
        self.stats.busy_ns += frame_air.as_nanos();
        if corrupted {
            self.stats.crc_failures += 1;
            ctx.set_timer(frame_air, TAG_COLLISION_END);
        } else if collide {
            self.stats.collisions += 1;
            ctx.set_timer(frame_air, TAG_COLLISION_END);
        } else {
            ctx.set_timer(frame_air, TAG_TX_END);
        }
    }

    fn finish_tx(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let tx = self.in_service.take().expect("busy without frame");
        self.stats.delivered += 1;
        // Post-MAC injected faults: data frames may be eaten, duplicated,
        // or delayed *after* the channel exchange succeeded, so the
        // transmitter always sees TxDone below. Management frames
        // (beacons, PS-Poll, null-data) are exempt — they model the PSM
        // machinery itself, not the lossy payload path.
        let is_data = matches!(tx.frame.kind, FrameKind::Data { .. });
        let (copies, extra_delay) = match (&mut self.fault, is_data) {
            (Some(fault), true) => match fault.decide(0, ctx.now()) {
                FaultVerdict::Drop(reason) => {
                    self.stats.dropped_fault += 1;
                    if let FrameKind::Data { packet, .. } = &tx.frame.kind {
                        netem::trace_drop(ctx, packet.id, "medium", reason);
                    }
                    (0, SimDuration::ZERO)
                }
                FaultVerdict::Deliver {
                    copies,
                    extra_delay,
                } => (copies, extra_delay),
            },
            _ => (1, SimDuration::ZERO),
        };
        // The fan-out is the engine's hottest loop: `Frame` is `Copy`,
        // so each delivery is a flat write into the scheduler's arena —
        // no clone of the listener list, no per-listener heap traffic.
        for _ in 0..copies {
            for l in &self.listeners {
                if l.node != tx.from && l.hears(&tx.frame) {
                    ctx.send(l.node, extra_delay, Msg::AirRx(tx.frame));
                }
            }
        }
        if self.wants_feedback(tx.from) {
            ctx.send(
                tx.from,
                SimDuration::ZERO,
                Msg::TxDone {
                    frame_id: tx.frame.id,
                },
            );
        }
        self.state = State::Idle;
        self.maybe_defer(ctx);
    }

    fn finish_collision(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let mut tx = self.in_service.take().expect("collision without frame");
        tx.retries += 1;
        tx.cw = (tx.cw * 2 + 1).min(self.cfg.cw_max);
        if tx.retries > self.cfg.retry_limit {
            self.stats.dropped_retry += 1;
            if self.wants_feedback(tx.from) {
                ctx.send(
                    tx.from,
                    SimDuration::ZERO,
                    Msg::TxFailed {
                        frame_id: tx.frame.id,
                    },
                );
            }
        } else {
            // The frame keeps the channel-access token with its widened
            // contention window (binary exponential backoff).
            self.in_service = Some(tx);
        }
        self.state = State::Idle;
        self.maybe_defer(ctx);
    }
}

impl Node<Msg> for MediumNode {
    fn layer(&self) -> &'static str {
        "phy.medium"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::MediumTx(frame) => self.enqueue(ctx, from, frame),
            other => {
                debug_assert!(false, "medium got unexpected message {other:?}");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        match tag {
            TAG_TX_START => self.start_tx(ctx),
            TAG_TX_END => self.finish_tx(ctx),
            TAG_COLLISION_END => self.finish_collision(ctx),
            _ => unreachable!("unknown medium timer tag {tag}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Sim, SimTime};
    use wire::{Ip, Mac, Packet, PacketTag, L4};

    /// Test radio: records frames heard and tx confirmations.
    struct Radio {
        heard: Vec<(SimTime, u64)>,
        done: Vec<(SimTime, u64)>,
        failed: Vec<u64>,
    }
    impl Radio {
        fn new() -> Radio {
            Radio {
                heard: vec![],
                done: vec![],
                failed: vec![],
            }
        }
    }
    impl Node<Msg> for Radio {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            match msg {
                Msg::AirRx(f) => self.heard.push((ctx.now(), f.id)),
                Msg::TxDone { frame_id } => self.done.push((ctx.now(), frame_id)),
                Msg::TxFailed { frame_id } => self.failed.push(frame_id),
                _ => {}
            }
        }
    }

    fn pkt(len: usize) -> Packet {
        Packet {
            id: 1,
            src: Ip::new(10, 0, 0, 2),
            dst: Ip::new(10, 0, 0, 1),
            ttl: 64,
            l4: L4::Udp {
                src_port: 1,
                dst_port: 2,
            },
            payload_len: len,
            tag: PacketTag::Other,
        }
    }

    fn setup(cfg: MediumConfig) -> (Sim<Msg>, NodeId, NodeId, NodeId) {
        let mut sim = Sim::new(7);
        let a = sim.add_node(Box::new(Radio::new()));
        let b = sim.add_node(Box::new(Radio::new()));
        let medium = sim.add_node(Box::new(MediumNode::new(cfg)));
        sim.node_mut::<MediumNode>(medium).attach(a);
        sim.node_mut::<MediumNode>(medium).attach(b);
        (sim, medium, a, b)
    }

    #[test]
    fn frame_is_delivered_to_other_listeners_only() {
        let (mut sim, medium, a, b) = setup(MediumConfig::default());
        let f = Frame::data(42, Mac::local(1), Mac::local(2), pkt(100), false);
        sim.inject(a, medium, SimTime::ZERO, Msg::MediumTx(f));
        sim.run_until_idle(100);
        assert!(sim.node::<Radio>(a).heard.is_empty());
        assert_eq!(sim.node::<Radio>(b).heard.len(), 1);
        assert_eq!(sim.node::<Radio>(a).done, vec![(sim.now(), 42)]);
    }

    #[test]
    fn airtime_reasonable_for_data_frame() {
        // 100 B payload UDP: wire 128, air bytes 164. At 24 Mbps the frame
        // is ~55 µs; plus preamble, DIFS, backoff and ACK it should land
        // well under 1 ms but above 60 µs.
        let (mut sim, medium, a, _b) = setup(MediumConfig::default());
        let f = Frame::data(1, Mac::local(1), Mac::local(2), pkt(100), false);
        sim.inject(a, medium, SimTime::ZERO, Msg::MediumTx(f));
        sim.run_until_idle(100);
        let t = sim.node::<Radio>(a).done[0].0;
        assert!(t > SimTime::from_micros(60), "{t:?}");
        assert!(t < SimTime::from_millis(1), "{t:?}");
    }

    #[test]
    fn single_sender_is_fifo_and_collision_free() {
        let (mut sim, medium, a, b) = setup(MediumConfig::default());
        for i in 0..5 {
            let f = Frame::data(i, Mac::local(1), Mac::local(2), pkt(500), false);
            sim.inject(a, medium, SimTime::ZERO, Msg::MediumTx(f));
        }
        sim.run_until_idle(1000);
        let ids: Vec<u64> = sim.node::<Radio>(b).heard.iter().map(|h| h.1).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        let st = &sim.node::<MediumNode>(medium).stats;
        assert_eq!(st.delivered, 5);
        // A lone sender has no contenders: collisions are impossible.
        assert_eq!(st.collisions, 0);
    }

    #[test]
    fn queueing_delay_grows_with_backlog() {
        let (mut sim, medium, a, b) = setup(MediumConfig::default());
        for i in 0..20 {
            let f = Frame::data(i, Mac::local(1), Mac::local(2), pkt(1400), false);
            sim.inject(a, medium, SimTime::ZERO, Msg::MediumTx(f));
        }
        sim.run_until_idle(10_000);
        let heard = &sim.node::<Radio>(b).heard;
        assert_eq!(heard.len(), 20);
        // Each ~1440+36 B data frame at 24 Mbps is ~0.5 ms on the air.
        let spread = heard.last().unwrap().0 - heard[0].0;
        assert!(spread > SimDuration::from_millis(8), "{spread}");
    }

    #[test]
    fn two_contending_senders_collide_and_share() {
        let cfg = MediumConfig {
            collision_unit_prob: 0.3, // violent channel
            ..MediumConfig::default()
        };
        let (mut sim, medium, a, b) = setup(cfg);
        for i in 0..10 {
            let fa = Frame::data(i, Mac::local(1), Mac::local(2), pkt(200), false);
            let fb = Frame::data(100 + i, Mac::local(2), Mac::local(1), pkt(200), false);
            sim.inject(a, medium, SimTime::ZERO, Msg::MediumTx(fa));
            sim.inject(b, medium, SimTime::ZERO, Msg::MediumTx(fb));
        }
        sim.run_until_idle(10_000);
        let st = &sim.node::<MediumNode>(medium).stats;
        assert!(st.collisions > 0, "expected collisions");
        assert_eq!(st.delivered + st.dropped_retry, 20);
        // Both directions made progress.
        assert!(!sim.node::<Radio>(a).heard.is_empty());
        assert!(!sim.node::<Radio>(b).heard.is_empty());
    }

    #[test]
    fn retry_limit_drops_frame() {
        let cfg = MediumConfig {
            collision_unit_prob: 1.0, // always collide while contended
            retry_limit: 2,
            ..MediumConfig::default()
        };
        let (mut sim, medium, a, b) = setup(cfg);
        let fa = Frame::data(1, Mac::local(1), Mac::local(2), pkt(100), false);
        let fb = Frame::data(2, Mac::local(2), Mac::local(1), pkt(100), false);
        sim.inject(a, medium, SimTime::ZERO, Msg::MediumTx(fa));
        sim.inject(b, medium, SimTime::ZERO, Msg::MediumTx(fb));
        sim.run_until_idle(10_000);
        let st = &sim.node::<MediumNode>(medium).stats;
        // The first winner collides until dropped (the other queue stays
        // backlogged); the survivor then transmits contention-free.
        assert_eq!(st.dropped_retry, 1);
        assert_eq!(st.delivered, 1);
        let failed = sim.node::<Radio>(a).failed.len() + sim.node::<Radio>(b).failed.len();
        assert_eq!(failed, 1);
    }

    #[test]
    fn sender_queue_overflow_drops_new_frames() {
        let (mut sim, medium, a, _b) = setup(MediumConfig::default());
        sim.node_mut::<MediumNode>(medium).queue_cap = 10;
        for i in 0..30 {
            let f = Frame::data(i, Mac::local(1), Mac::local(2), pkt(1400), false);
            sim.inject(a, medium, SimTime::ZERO, Msg::MediumTx(f));
        }
        sim.run_until_idle(10_000);
        let st = &sim.node::<MediumNode>(medium).stats;
        // 1 in service + 10 queued make it; the rest are dropped on entry.
        assert_eq!(st.dropped_queue_full, 19);
        assert_eq!(st.delivered, 11);
        assert_eq!(sim.node::<Radio>(a).failed.len(), 19);
    }

    #[test]
    fn overflow_of_one_sender_does_not_starve_another() {
        let (mut sim, medium, a, b) = setup(MediumConfig::default());
        sim.node_mut::<MediumNode>(medium).queue_cap = 20;
        // a floods; b sends one frame at t=5ms.
        for i in 0..200 {
            let f = Frame::data(i, Mac::local(1), Mac::local(2), pkt(1400), false);
            sim.inject(a, medium, SimTime::ZERO, Msg::MediumTx(f));
        }
        let fb = Frame::data(999, Mac::local(2), Mac::local(1), pkt(100), false);
        sim.inject(b, medium, SimTime::from_millis(5), Msg::MediumTx(fb));
        sim.run_until_idle(100_000);
        // b's frame is delivered within a few ms of contention, not after
        // a's entire backlog.
        let heard_by_a = &sim.node::<Radio>(a).heard;
        let t_b = heard_by_a
            .iter()
            .find(|(_, id)| *id == 999)
            .expect("b's frame delivered")
            .0;
        assert!(t_b < SimTime::from_millis(15), "t_b={t_b:?}");
    }

    #[test]
    fn channel_errors_retried_transparently() {
        let cfg = MediumConfig {
            frame_error_rate: 0.3,
            ..MediumConfig::default()
        };
        let (mut sim, medium, a, b) = setup(cfg);
        for i in 0..50 {
            let f = Frame::data(i, Mac::local(1), Mac::local(2), pkt(300), false);
            sim.inject(a, medium, SimTime::ZERO, Msg::MediumTx(f));
        }
        sim.run_until_idle(100_000);
        let st = &sim.node::<MediumNode>(medium).stats;
        assert!(st.crc_failures > 3, "fer should bite: {}", st.crc_failures);
        // A single sender never collides; corruption is recovered by
        // retries, so everything is eventually delivered (p_fail^8 ≈ 0).
        assert_eq!(st.collisions, 0);
        assert_eq!(st.delivered, 50);
        assert_eq!(sim.node::<Radio>(b).heard.len(), 50);
    }

    #[test]
    fn post_mac_fault_eats_data_but_still_acks_transmitter() {
        let (mut sim, medium, a, b) = setup(MediumConfig::default());
        sim.node_mut::<MediumNode>(medium)
            .set_fault_plan(&FaultPlan::bernoulli(1.0).with_seed(4));
        let f = Frame::data(7, Mac::local(1), Mac::local(2), pkt(100), false);
        sim.inject(a, medium, SimTime::ZERO, Msg::MediumTx(f));
        sim.run_until_idle(1000);
        // The transmitter believes the exchange succeeded (TxDone)…
        assert_eq!(sim.node::<Radio>(a).done.len(), 1);
        assert!(sim.node::<Radio>(a).failed.is_empty());
        // …but nobody heard the frame: recovery must be app-level.
        assert!(sim.node::<Radio>(b).heard.is_empty());
        let st = &sim.node::<MediumNode>(medium).stats;
        assert_eq!(st.dropped_fault, 1);
        assert_eq!(
            sim.node::<MediumNode>(medium)
                .fault_stats()
                .unwrap()
                .offered,
            1
        );
    }

    #[test]
    fn post_mac_fault_exempts_management_frames() {
        let (mut sim, medium, a, b) = setup(MediumConfig::default());
        sim.node_mut::<MediumNode>(medium)
            .set_fault_plan(&FaultPlan::bernoulli(1.0).with_seed(4));
        let f = Frame::beacon(9, Mac::local(0), vec![]);
        sim.inject(a, medium, SimTime::ZERO, Msg::MediumTx(f));
        sim.run_until_idle(1000);
        // Beacons sail through even a 100%-loss plan.
        assert_eq!(sim.node::<Radio>(b).heard.len(), 1);
        assert_eq!(sim.node::<MediumNode>(medium).stats.dropped_fault, 0);
    }

    #[test]
    fn beacons_not_acked_and_broadcast() {
        let (mut sim, medium, a, b) = setup(MediumConfig::default());
        let f = Frame::beacon(9, Mac::local(0), vec![Mac::local(5)]);
        sim.inject(a, medium, SimTime::ZERO, Msg::MediumTx(f));
        sim.run_until_idle(100);
        assert_eq!(sim.node::<Radio>(b).heard.len(), 1);
        // No ACK airtime: a beacon of ~88 B at 6 Mbps ≈ 117 µs + preamble.
        let t = sim.node::<Radio>(a).done[0].0;
        assert!(t < SimTime::from_micros(400), "{t:?}");
    }

    #[test]
    fn station_filter_delivers_only_addressed_and_broadcast() {
        let mut sim = Sim::new(7);
        let sta = sim.add_node(Box::new(Radio::new()));
        let other = sim.add_node(Box::new(Radio::new()));
        let medium = sim.add_node(Box::new(MediumNode::new(MediumConfig::default())));
        sim.node_mut::<MediumNode>(medium)
            .attach_station(sta, Mac::local(5), false);
        sim.node_mut::<MediumNode>(medium).attach(other);
        // Addressed to the station, to someone else, and broadcast.
        let to_sta = Frame::data(1, Mac::local(9), Mac::local(5), pkt(100), false);
        let to_other = Frame::data(2, Mac::local(9), Mac::local(6), pkt(100), false);
        let bcast = Frame::beacon(3, Mac::local(0), vec![]);
        for f in [to_sta, to_other, bcast] {
            sim.inject(other, medium, SimTime::ZERO, Msg::MediumTx(f));
        }
        sim.run_until_idle(1000);
        let heard: Vec<u64> = sim.node::<Radio>(sta).heard.iter().map(|h| h.1).collect();
        assert_eq!(heard, vec![1, 3], "filter must pass own-MAC + broadcast");
    }

    #[test]
    fn feedback_opt_out_suppresses_tx_confirmations() {
        let mut sim = Sim::new(7);
        let quiet = sim.add_node(Box::new(Radio::new()));
        let medium = sim.add_node(Box::new(MediumNode::new(MediumConfig::default())));
        sim.node_mut::<MediumNode>(medium)
            .attach_station(quiet, Mac::local(5), false);
        sim.node_mut::<MediumNode>(medium).queue_cap = 1;
        for i in 0..5 {
            let f = Frame::data(i, Mac::local(5), Mac::local(9), pkt(1400), false);
            sim.inject(quiet, medium, SimTime::ZERO, Msg::MediumTx(f));
        }
        sim.run_until_idle(10_000);
        let radio = sim.node::<Radio>(quiet);
        assert!(radio.done.is_empty(), "TxDone suppressed for opted-out tx");
        assert!(radio.failed.is_empty(), "TxFailed suppressed too");
        // The channel behaved identically otherwise.
        let st = &sim.node::<MediumNode>(medium).stats;
        assert_eq!(st.delivered, 2);
        assert_eq!(st.dropped_queue_full, 3);
    }

    #[test]
    fn monitor_without_cross_traffic_skips_tagged_data() {
        let mut sim = Sim::new(7);
        let snif = sim.add_node(Box::new(Radio::new()));
        let src = sim.add_node(Box::new(Radio::new()));
        let medium = sim.add_node(Box::new(MediumNode::new(MediumConfig::default())));
        sim.node_mut::<MediumNode>(medium)
            .attach_monitor(snif, false);
        sim.node_mut::<MediumNode>(medium).attach(src);
        let mut cross = pkt(1400);
        cross.tag = PacketTag::CrossTraffic;
        let cross = Frame::data(1, Mac::local(2), Mac::local(0), cross, false);
        let probe = Frame::data(2, Mac::local(1), Mac::local(0), pkt(100), false);
        let beacon = Frame::beacon(3, Mac::local(0), vec![]);
        for f in [cross, probe, beacon] {
            sim.inject(src, medium, SimTime::ZERO, Msg::MediumTx(f));
        }
        sim.run_until_idle(1000);
        let heard: Vec<u64> = sim.node::<Radio>(snif).heard.iter().map(|h| h.1).collect();
        assert_eq!(heard, vec![2, 3], "cross-traffic data must be skipped");
    }

    #[test]
    fn busy_accounting() {
        let (mut sim, medium, a, _b) = setup(MediumConfig::default());
        let f = Frame::data(1, Mac::local(1), Mac::local(2), pkt(1000), false);
        sim.inject(a, medium, SimTime::ZERO, Msg::MediumTx(f));
        sim.run_until_idle(100);
        assert!(sim.node::<MediumNode>(medium).stats.busy_ns > 0);
        assert_eq!(sim.node::<MediumNode>(medium).backlog(), 0);
    }
}
