//! Emulated wired links: fixed delay, jitter, and loss — the `tc netem`
//! of the testbed. The paper adds delay on the server side to emulate
//! nRTTs of 20–135 ms; experiments here do the same with a [`LinkNode`]
//! in front of the measurement server.

use crate::fault::{trace_drop, FaultPlan, FaultState, FaultVerdict};
use obs::Snapshot;
use simcore::{Ctx, LatencyDist, Node, NodeId, SimDuration};
use wire::Msg;

/// The `netem.link.<label>.*` names of a link's counts, fixed at compile
/// time so an export builds no string.
#[derive(Debug, Clone, Copy)]
pub struct LinkNames {
    /// Packets forwarded.
    pub forwarded: &'static str,
    /// Packets lost.
    pub lost: &'static str,
    /// Wire occupancy, µs.
    pub occupancy_us: &'static str,
}

impl LinkNames {
    /// The server link's counts, `netem.link.server.*`.
    pub const SERVER: LinkNames = LinkNames {
        forwarded: "netem.link.server.forwarded",
        lost: "netem.link.server.lost",
        occupancy_us: "netem.link.server.occupancy_us",
    };
}

/// Link parameters.
#[derive(Debug, Clone)]
pub struct LinkParams {
    /// One-way fixed delay.
    pub delay: SimDuration,
    /// Additional one-way jitter in ms (clamped normal around 0).
    pub jitter_std_ms: f64,
    /// Packet loss probability per direction.
    pub loss: f64,
    /// Serialization rate limit in Mbit/s (`None` = unlimited). Packets
    /// occupy the wire for `size/rate` and queue FIFO behind each other
    /// per direction — the `tc tbf` of the testbed.
    pub rate_mbps: Option<f64>,
}

impl LinkParams {
    /// A link adding `ms` of one-way delay (use `rtt/2` per side to
    /// emulate a symmetric path).
    pub fn delay_ms(ms: u64) -> LinkParams {
        LinkParams {
            delay: SimDuration::from_millis(ms),
            jitter_std_ms: 0.0,
            loss: 0.0,
            rate_mbps: None,
        }
    }

    /// Builder: cap the link's serialization rate.
    pub fn with_rate_mbps(mut self, mbps: f64) -> LinkParams {
        self.rate_mbps = Some(mbps);
        self
    }
}

/// Counters for a link.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped by the loss process.
    pub lost: u64,
    /// Serialization backlog on the wire after the most recent enqueue,
    /// µs (0 when the link is unlimited).
    pub occupancy_us: i64,
}

/// A two-sided wired link. Packets arriving from endpoint `a` exit at `b`
/// after the configured delay, and vice versa. Packets from any other
/// node are rejected (a wiring bug).
pub struct LinkNode {
    params: LinkParams,
    a: Option<NodeId>,
    b: Option<NodeId>,
    /// Per-direction wire occupancy (a→b, b→a) for the rate limiter.
    busy_until: [simcore::SimTime; 2],
    /// Injected faults (loss/reorder/duplicate/jitter/flap), if any.
    fault: Option<FaultState>,
    /// Counters.
    pub stats: LinkStats,
}

impl LinkNode {
    /// Create an unconnected link.
    pub fn new(params: LinkParams) -> LinkNode {
        LinkNode {
            params,
            a: None,
            b: None,
            busy_until: [simcore::SimTime::ZERO; 2],
            fault: None,
            stats: LinkStats::default(),
        }
    }

    /// Write this link's counts into `out` under `names`
    /// (`netem.link.<label>.*`). The fault layer's counts are
    /// [`LinkNode::fault_stats`].
    pub fn export(&self, names: &LinkNames, out: &mut Snapshot) {
        let s = &self.stats;
        out.add_counter(names.forwarded, s.forwarded);
        out.add_counter(names.lost, s.lost);
        out.add_gauge(names.occupancy_us, s.occupancy_us);
    }

    /// Install a fault plan (replacing any previous one). The plan's own
    /// seed drives its verdicts, so the link's behavior under faults is
    /// independent of the engine's shared RNG stream.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.fault = plan.is_active().then(|| FaultState::new(plan));
    }

    /// Fault-layer counters, if a plan is installed.
    pub fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        self.fault.as_ref().map(|f| f.stats)
    }

    /// Connect the two endpoints.
    pub fn connect(&mut self, a: NodeId, b: NodeId) {
        self.a = Some(a);
        self.b = Some(b);
    }

    fn one_way(&mut self, ctx: &mut Ctx<'_, Msg>) -> SimDuration {
        let jitter = if self.params.jitter_std_ms > 0.0 {
            let dist = LatencyDist::normal(
                0.0,
                self.params.jitter_std_ms,
                0.0,
                self.params.jitter_std_ms * 4.0,
            );
            dist.sample(ctx.rng())
        } else {
            SimDuration::ZERO
        };
        self.params.delay + jitter
    }
}

impl Node<Msg> for LinkNode {
    fn layer(&self) -> &'static str {
        "netem.link"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        let Msg::Wire(packet) = msg else {
            debug_assert!(false, "link got non-wire message");
            return;
        };
        let out = if Some(from) == self.a {
            self.b
        } else if Some(from) == self.b {
            self.a
        } else {
            debug_assert!(false, "link got packet from unconnected node {from:?}");
            None
        };
        let Some(out) = out else { return };
        let dir = usize::from(Some(from) == self.b);
        let loss = self.params.loss;
        if loss > 0.0 && ctx.rng().chance(loss) {
            self.stats.lost += 1;
            return;
        }
        // The injected fault layer sits behind the intrinsic loss model:
        // its verdict either drops the packet (never delivered) or
        // delivers `copies ≥ 1` with extra latency.
        let verdict = match &mut self.fault {
            Some(fault) => fault.decide(dir, ctx.now()),
            None => FaultVerdict::Deliver {
                copies: 1,
                extra_delay: SimDuration::ZERO,
            },
        };
        let (copies, extra_delay) = match verdict {
            FaultVerdict::Drop(reason) => {
                self.stats.lost += 1;
                trace_drop(ctx, packet.id, "link", reason);
                return;
            }
            FaultVerdict::Deliver {
                copies,
                extra_delay,
            } => (copies, extra_delay),
        };
        self.stats.forwarded += 1;
        let mut d = self.one_way(ctx) + extra_delay;
        if let Some(rate) = self.params.rate_mbps {
            // Serialization: the packet occupies the wire for size/rate
            // and queues FIFO behind whatever is already on it.
            let now = ctx.now();
            let xmit = SimDuration::from_us_f64(packet.wire_len() as f64 * 8.0 / rate);
            let start = self.busy_until[dir].max(now);
            self.busy_until[dir] = start + xmit;
            let backlog = self.busy_until[dir].saturating_since(now);
            self.stats.occupancy_us = (backlog.as_nanos() / 1_000) as i64;
            d += backlog;
        }
        let tracer = ctx.tracer();
        if let Some(tc) = tracer.packet_ctx(packet.id) {
            let now = ctx.now();
            tracer.span(
                tc.trace,
                Some(tc.root),
                "link",
                "net",
                now.as_nanos(),
                (now + d).as_nanos(),
            );
        }
        for _ in 1..copies {
            ctx.send(out, d, Msg::Wire(packet));
        }
        ctx.send(out, d, Msg::Wire(packet));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Sim, SimTime};
    use wire::{Ip, Packet, PacketTag, L4};

    struct Sink {
        got: Vec<(SimTime, u64)>,
    }
    impl Node<Msg> for Sink {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Wire(p) = msg {
                self.got.push((ctx.now(), p.id));
            }
        }
    }

    fn pkt(id: u64) -> Packet {
        Packet {
            id,
            src: Ip::new(10, 0, 0, 2),
            dst: Ip::new(10, 0, 0, 1),
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
    fn forwards_with_delay_both_ways() {
        let mut sim = Sim::new(0);
        let a = sim.add_node(Box::new(Sink { got: vec![] }));
        let b = sim.add_node(Box::new(Sink { got: vec![] }));
        let link = sim.add_node(Box::new(LinkNode::new(LinkParams::delay_ms(15))));
        sim.node_mut::<LinkNode>(link).connect(a, b);
        sim.inject(a, link, SimTime::ZERO, Msg::Wire(pkt(1)));
        sim.inject(b, link, SimTime::from_millis(1), Msg::Wire(pkt(2)));
        sim.run_until_idle(100);
        assert_eq!(sim.node::<Sink>(b).got, vec![(SimTime::from_millis(15), 1)]);
        assert_eq!(sim.node::<Sink>(a).got, vec![(SimTime::from_millis(16), 2)]);
    }

    #[test]
    fn lossy_link_drops() {
        let mut sim = Sim::new(1);
        let a = sim.add_node(Box::new(Sink { got: vec![] }));
        let b = sim.add_node(Box::new(Sink { got: vec![] }));
        let link = sim.add_node(Box::new(LinkNode::new(LinkParams {
            delay: SimDuration::ZERO,
            jitter_std_ms: 0.0,
            loss: 0.5,
            rate_mbps: None,
        })));
        sim.node_mut::<LinkNode>(link).connect(a, b);
        for i in 0..200 {
            sim.inject(a, link, SimTime::ZERO, Msg::Wire(pkt(i)));
        }
        sim.run_until_idle(1000);
        let delivered = sim.node::<Sink>(b).got.len();
        assert!((60..140).contains(&delivered), "delivered={delivered}");
        let st = sim.node::<LinkNode>(link).stats;
        assert_eq!(st.forwarded + st.lost, 200);
    }

    #[test]
    fn rate_limit_serializes_and_queues() {
        let mut sim = Sim::new(3);
        let a = sim.add_node(Box::new(Sink { got: vec![] }));
        let b = sim.add_node(Box::new(Sink { got: vec![] }));
        // 8 Mbit/s: a 28-byte datagram (224 bits) takes 28 µs on the wire.
        let link = sim.add_node(Box::new(LinkNode::new(
            LinkParams::delay_ms(0).with_rate_mbps(8.0),
        )));
        sim.node_mut::<LinkNode>(link).connect(a, b);
        for i in 0..10 {
            sim.inject(a, link, SimTime::ZERO, Msg::Wire(pkt(i)));
        }
        sim.run_until_idle(100);
        let got = &sim.node::<Sink>(b).got;
        assert_eq!(got.len(), 10);
        // Arrivals spaced by exactly one serialization time.
        for w in got.windows(2) {
            let gap = w[1].0 - w[0].0;
            assert_eq!(gap, SimDuration::from_micros(28), "{gap}");
        }
        // And the reverse direction is independent: a packet b→a at t=0
        // would not queue behind a's burst.
        sim.inject(b, link, sim.now(), Msg::Wire(pkt(99)));
        let t0 = sim.now();
        sim.run_until_idle(100);
        let back = sim.node::<Sink>(a).got.last().unwrap().0;
        assert_eq!(back - t0, SimDuration::from_micros(28));
    }

    #[test]
    fn fault_plan_drops_and_duplicates_on_link() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(7);
        let a = sim.add_node(Box::new(Sink { got: vec![] }));
        let b = sim.add_node(Box::new(Sink { got: vec![] }));
        let link = sim.add_node(Box::new(LinkNode::new(LinkParams::delay_ms(1))));
        sim.node_mut::<LinkNode>(link).connect(a, b);
        let plan = FaultPlan::bernoulli(0.4).with_duplication(0.2).with_seed(5);
        sim.node_mut::<LinkNode>(link).set_fault_plan(&plan);
        for i in 0..500 {
            sim.inject(a, link, SimTime::ZERO, Msg::Wire(pkt(i)));
        }
        sim.run_until_idle(1000);
        let st = sim.node::<LinkNode>(link).stats;
        let fs = sim.node::<LinkNode>(link).fault_stats().unwrap();
        assert_eq!(fs.offered, 500);
        assert_eq!(st.forwarded + st.lost, 500);
        assert_eq!(st.lost, fs.dropped());
        // Every arrival is either a unique forwarded packet or a duplicate.
        let arrivals = sim.node::<Sink>(b).got.len() as u64;
        assert_eq!(arrivals, st.forwarded + fs.duplicated);
        assert!((150..250).contains(&st.lost), "lost={}", st.lost);
    }

    #[test]
    fn fault_plan_replays_identically_on_link() {
        use crate::fault::FaultPlan;
        let run = |engine_seed: u64| {
            let mut sim = Sim::new(engine_seed);
            let a = sim.add_node(Box::new(Sink { got: vec![] }));
            let b = sim.add_node(Box::new(Sink { got: vec![] }));
            let link = sim.add_node(Box::new(LinkNode::new(LinkParams::delay_ms(1))));
            sim.node_mut::<LinkNode>(link).connect(a, b);
            let plan = FaultPlan::gilbert_elliott(0.3, 4.0).with_seed(99);
            sim.node_mut::<LinkNode>(link).set_fault_plan(&plan);
            for i in 0..300 {
                sim.inject(a, link, SimTime::ZERO, Msg::Wire(pkt(i)));
            }
            sim.run_until_idle(1000);
            sim.node::<Sink>(b)
                .got
                .iter()
                .map(|g| g.1)
                .collect::<Vec<_>>()
        };
        // Same plan seed ⇒ identical delivered-id stream, even under a
        // different *engine* seed: the fault layer owns its randomness.
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn flap_window_silences_link_then_recovers() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(0);
        let a = sim.add_node(Box::new(Sink { got: vec![] }));
        let b = sim.add_node(Box::new(Sink { got: vec![] }));
        let link = sim.add_node(Box::new(LinkNode::new(LinkParams::delay_ms(1))));
        sim.node_mut::<LinkNode>(link).connect(a, b);
        let plan = FaultPlan::none().with_flap(SimTime::from_millis(10), SimTime::from_millis(20));
        sim.node_mut::<LinkNode>(link).set_fault_plan(&plan);
        for (i, t) in [(1u64, 5u64), (2, 15), (3, 25)] {
            sim.inject(a, link, SimTime::from_millis(t), Msg::Wire(pkt(i)));
        }
        sim.run_until_idle(100);
        let ids: Vec<u64> = sim.node::<Sink>(b).got.iter().map(|g| g.1).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn jitter_spreads_arrivals() {
        let mut sim = Sim::new(2);
        let a = sim.add_node(Box::new(Sink { got: vec![] }));
        let b = sim.add_node(Box::new(Sink { got: vec![] }));
        let link = sim.add_node(Box::new(LinkNode::new(LinkParams {
            delay: SimDuration::from_millis(10),
            jitter_std_ms: 2.0,
            loss: 0.0,
            rate_mbps: None,
        })));
        sim.node_mut::<LinkNode>(link).connect(a, b);
        for i in 0..50 {
            sim.inject(a, link, SimTime::ZERO, Msg::Wire(pkt(i)));
        }
        sim.run_until_idle(1000);
        let times: Vec<SimTime> = sim.node::<Sink>(b).got.iter().map(|g| g.0).collect();
        let min = times.iter().min().unwrap();
        let max = times.iter().max().unwrap();
        assert!(*min >= SimTime::from_millis(10));
        assert!(*max > *min, "jitter should spread arrivals");
    }
}
