//! The simulated AcuteMon app: the [`Machine`] driven by the phone's app
//! API. It puts the machine's sends on the simulated wire, maps its
//! timers onto app timer tags and credits replies to probes, both
//! through [`measure::ProbeWire`]. Keep-awake packets carry TTL
//! `warmup_ttl` (1 by default), so the first-hop gateway drops them.
//!
//! In the paper the MT is a pre-compiled native binary to avoid DVM
//! overhead; install this app with [`phone::RuntimeKind::Native`] for the
//! same effect.

use std::ops::Deref;

use measure::{ProbeKind, ProbeWire, ECHO_PORT, HTTP_PORT, MAX_PROBES};
use obs::Snapshot;
use phone::{App, AppCtx};
use simcore::{SimDuration, SimTime};
use wire::{Packet, PacketTag, L4};

use crate::config::AcuteMonConfig;
use crate::machine::{Io, KeepAwake, Machine, MetricNames, Timer};

/// ICMP ident and base source port: probe `n` leaves from `SESSION + n`.
const SESSION: u16 = 0x7A00;

/// The simulated app's metric names.
const METRICS: MetricNames = MetricNames {
    sent: "measure.acutemon.sent",
    received: "measure.acutemon.received",
    failed: "measure.acutemon.timeouts",
    retries: "measure.acutemon.retries",
    rewarms: "measure.acutemon.rewarms",
    rtt_ms: "measure.acutemon.rtt_ms",
    warmup_sent: "acutemon.warmup_sent",
    background_sent: "acutemon.background_sent",
    degraded: None,
};

const TAG_MT_START: u32 = 1;
const TAG_BG: u32 = 2;
const TAG_TIMEOUT_BASE: u32 = 1000;
const TAG_FIRE_BASE: u32 = 0x4000_0000;

/// The AcuteMon app. It dereferences to its [`Machine`] for the records,
/// BT accounting and finish time.
pub struct AcuteMonApp {
    cfg: AcuteMonConfig,
    wire: ProbeWire,
    machine: Machine,
}

impl AcuteMonApp {
    /// Create an AcuteMon session.
    ///
    /// # Panics
    ///
    /// Without a target, or if targets × `k` exceeds 65,536, the
    /// port-encoding range.
    pub fn new(cfg: AcuteMonConfig) -> AcuteMonApp {
        assert!(!cfg.targets.is_empty(), "AcuteMon needs a target");
        let probes = cfg.targets.len() as u64 * u64::from(cfg.k);
        assert!(
            probes <= MAX_PROBES,
            "{probes} probes exceed the port-encoding range ({MAX_PROBES})"
        );
        // TCP probes go to the HTTP port, UDP ones to echo.
        let port = match cfg.probe {
            ProbeKind::Udp => ECHO_PORT,
            _ => HTTP_PORT,
        };
        AcuteMonApp {
            machine: Machine::new(cfg.plan()),
            wire: ProbeWire {
                kind: cfg.probe,
                port,
                session: SESSION,
            },
            cfg,
        }
    }

    /// Write this session's counts into `out`: the `measure.acutemon.*`
    /// probe counters every simulated tool has, plus
    /// `acutemon.{warmup,background}_sent`.
    pub fn export(&self, out: &mut Snapshot) {
        self.machine.export(&METRICS, out);
    }

    /// The probe a reply answers, if it answers one already sent.
    fn probe_for(&self, packet: &Packet) -> Option<u32> {
        let sent = self.machine.records.len() as u32;
        self.wire.probe_of(packet, sent)
    }
}

impl Deref for AcuteMonApp {
    type Target = Machine;

    fn deref(&self) -> &Machine {
        &self.machine
    }
}

/// The machine's [`Io`] on the simulated phone.
struct Phone<'s, 'a, 'b> {
    cfg: &'s AcuteMonConfig,
    wire: ProbeWire,
    ctx: &'s mut AppCtx<'a, 'b>,
}

impl Io for Phone<'_, '_, '_> {
    fn keep_awake(&mut self, kind: KeepAwake) -> bool {
        let tag = match kind {
            KeepAwake::Background => PacketTag::Background,
            KeepAwake::WarmUp | KeepAwake::Rewarm => PacketTag::WarmUp,
        };
        let l4 = L4::Udp {
            src_port: SESSION,
            dst_port: 33434, // traceroute-style throwaway port
        };
        self.ctx
            .send(self.cfg.targets[0], self.cfg.warmup_ttl, l4, 8, tag);
        true
    }

    /// Every attempt of probe `n` has the same wire shape, so a reply to
    /// any attempt matches the same record.
    fn probe(&mut self, n: u32, target: u32) -> u64 {
        let (l4, payload) = self.wire.request(n);
        let dst = self.cfg.targets[target as usize];
        let id = self.ctx.send(dst, 64, l4, payload, PacketTag::Probe(n));
        if let Some(tc) = self.ctx.tracer().packet_ctx(id) {
            self.ctx.tracer().attr(tc.root, "tool", "acutemon");
        }
        id
    }

    fn arm(&mut self, timer: Timer, after: SimDuration) {
        let tag = match timer {
            Timer::MtStart => TAG_MT_START,
            Timer::Background => TAG_BG,
            Timer::Timeout(n) => TAG_TIMEOUT_BASE + n,
            Timer::Fire(n) => TAG_FIRE_BASE + n,
        };
        self.ctx.set_timer(after, tag);
    }

    /// Recovery spans hang off the failed attempt's trace.
    fn span(
        &mut self,
        name: &'static str,
        req_id: u64,
        start: SimTime,
        end: SimTime,
        (key, value): (&'static str, u32),
    ) {
        let tracer = self.ctx.tracer();
        if let Some(tc) = tracer.packet_ctx(req_id) {
            let (start, end) = (start.as_nanos(), end.as_nanos());
            let id = tracer.span(tc.trace, Some(tc.root), name, "fault", start, end);
            tracer.attr(id, key, value);
        }
    }

    fn jitter(&mut self) -> f64 {
        self.ctx.rng().unit()
    }
}

impl App for AcuteMonApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_, '_>) {
        let (cfg, wire) = (&self.cfg, self.wire);
        self.machine.start(&mut Phone { cfg, wire, ctx });
    }

    fn wants(&self, packet: &Packet) -> bool {
        self.probe_for(packet).is_some()
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<'_, '_>, packet: Packet) {
        let Some(n) = self.probe_for(&packet) else {
            return;
        };
        // Any reply closes its probe — for TcpConnect a SYN/ACK, for
        // TcpData a PSH/ACK, even a stray RST: its arrival is the
        // user-level response time.
        let now = ctx.now();
        let (cfg, wire) = (&self.cfg, self.wire);
        self.machine
            .reply(now, n, packet.id, None, &mut Phone { cfg, wire, ctx });
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_, '_>, tag: u32) {
        let timer = match tag {
            TAG_MT_START => Timer::MtStart,
            TAG_BG => Timer::Background,
            t if t >= TAG_FIRE_BASE => Timer::Fire(t - TAG_FIRE_BASE),
            t if t >= TAG_TIMEOUT_BASE => Timer::Timeout(t - TAG_TIMEOUT_BASE),
            _ => return,
        };
        let now = ctx.now();
        let (cfg, wire) = (&self.cfg, self.wire);
        self.machine
            .timer(now, timer, &mut Phone { cfg, wire, ctx });
    }

    fn finished_at(&self) -> Option<SimTime> {
        self.machine.finished_at()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::{ProbeError, RecordSet};
    use netem::{LinkNode, LinkParams, ServerConfig, ServerNode, SwitchNode};
    use phone::{PhoneNode, RuntimeKind};
    use simcore::{Sim, SimTime};
    use wire::{Ip, Msg};

    /// Phone ↔ link ↔ server, no WiFi: exercises BT/MT logic and the
    /// phone pipeline. (The full-testbed behaviour is verified in the
    /// `testbed` crate.)
    fn world(rtt_ms: u64, cfg: AcuteMonConfig) -> (Sim<Msg>, simcore::NodeId, usize) {
        world_with_fault(rtt_ms, cfg, None)
    }

    /// Same, with an optional fault plan installed on the single link.
    fn world_with_fault(
        rtt_ms: u64,
        cfg: AcuteMonConfig,
        fault: Option<&netem::FaultPlan>,
    ) -> (Sim<Msg>, simcore::NodeId, usize) {
        let mut sim = Sim::new(31);
        let server = sim.add_node(Box::new(ServerNode::new(
            50,
            ServerConfig::standard(phone::wired_ip(1)),
        )));
        let link = sim.add_node(Box::new(LinkNode::new(LinkParams::delay_ms(rtt_ms / 2))));
        let mut ph = PhoneNode::new(1, phone::nexus5(), phone::wlan_ip(100), link);
        let app = ph.install_app(Box::new(AcuteMonApp::new(cfg)), RuntimeKind::Native);
        let phone_id = sim.add_node(Box::new(ph));
        let ln = sim.node_mut::<LinkNode>(link);
        ln.connect(phone_id, server);
        if let Some(plan) = fault {
            ln.set_fault_plan(plan);
        }
        (sim, phone_id, app)
    }

    #[test]
    fn k_probes_complete_sequentially() {
        let cfg = AcuteMonConfig::new(phone::wired_ip(1), 10);
        let (mut sim, phone_id, app) = world(30, cfg);
        sim.run_until(SimTime::from_secs(5));
        let am = sim.node::<PhoneNode>(phone_id).app::<AcuteMonApp>(app);
        assert_eq!(am.records.len(), 10);
        assert!((am.records.completion() - 1.0).abs() < 1e-12);
        assert!(am.finished_at().is_some());
        // Sequential: each probe sent after the previous completed.
        for w in am.records.windows(2) {
            assert!(w[1].tou >= w[0].tiu.unwrap());
        }
    }

    #[test]
    fn warmup_removes_the_bus_wake_from_probes() {
        let cfg = AcuteMonConfig::new(phone::wired_ip(1), 20);
        let (mut sim, phone_id, app) = world(30, cfg);
        sim.run_until(SimTime::from_secs(5));
        let phone_node = sim.node::<PhoneNode>(phone_id);
        let am = phone_node.app::<AcuteMonApp>(app);
        // Probes ride a warm bus: dvsend small for every probe request.
        for rec in &am.records {
            let s = phone_node.ledger().get(rec.req_id).unwrap();
            let dvsend = s.dvsend_ms().unwrap();
            assert!(dvsend < 1.0, "probe {} dvsend={dvsend}", rec.probe);
        }
        // And du stays close to the true RTT.
        let du = am.records.du();
        let mean = du.iter().sum::<f64>() / du.len() as f64;
        assert!(mean < 30.0 + 4.0, "mean={mean}");
    }

    #[test]
    fn bt_sends_one_warmup_then_background_every_db() {
        let cfg = AcuteMonConfig::new(phone::wired_ip(1), 5);
        let (mut sim, phone_id, app) = world(100, cfg);
        sim.run_until(SimTime::from_secs(5));
        let am = sim.node::<PhoneNode>(phone_id).app::<AcuteMonApp>(app);
        assert_eq!(am.bt.warmup_sent, 1);
        // K=5 probes over a 100 ms path ≈ 500 ms of measurement; at
        // db=20ms that is ~25 background packets (§4.1's estimate).
        assert!(
            (15..=35).contains(&am.bt.background_sent),
            "bg={}",
            am.bt.background_sent
        );
    }

    #[test]
    fn bt_stops_after_measurement() {
        let cfg = AcuteMonConfig::new(phone::wired_ip(1), 3);
        let (mut sim, phone_id, app) = world(20, cfg);
        sim.run_until(SimTime::from_secs(2));
        let sent_at_2s = sim
            .node::<PhoneNode>(phone_id)
            .app::<AcuteMonApp>(app)
            .bt
            .background_sent;
        sim.run_until(SimTime::from_secs(10));
        let sent_at_10s = sim
            .node::<PhoneNode>(phone_id)
            .app::<AcuteMonApp>(app)
            .bt
            .background_sent;
        assert_eq!(sent_at_2s, sent_at_10s, "BT must stop after the run");
    }

    #[test]
    fn probe_kinds_all_complete() {
        for kind in [
            ProbeKind::TcpConnect,
            ProbeKind::TcpData,
            ProbeKind::Icmp,
            ProbeKind::Udp,
        ] {
            let cfg = AcuteMonConfig::new(phone::wired_ip(1), 5).with_probe(kind);
            let (mut sim, phone_id, app) = world(25, cfg);
            sim.run_until(SimTime::from_secs(5));
            let am = sim.node::<PhoneNode>(phone_id).app::<AcuteMonApp>(app);
            assert!(
                (am.records.completion() - 1.0).abs() < 1e-12,
                "kind {kind:?} completion {}",
                am.records.completion()
            );
        }
    }

    #[test]
    fn retries_recover_all_probes_under_bursty_loss() {
        // 20% bursty (Gilbert–Elliott) loss on the only link, hitting
        // probes, replies, and keep-awake traffic alike. With a retry
        // budget the run must still complete every probe — no panic, no
        // silently dropped samples.
        let plan = netem::FaultPlan::gilbert_elliott(0.20, 4.0).with_seed(7);
        let mut cfg = AcuteMonConfig::new(phone::wired_ip(1), 20)
            .with_retries(8)
            .with_retry_backoff(SimDuration::from_millis(20));
        cfg.probe_timeout = SimDuration::from_millis(200);
        let (mut sim, phone_id, app) = world_with_fault(30, cfg, Some(&plan));
        sim.run_until(SimTime::from_secs(120));
        let am = sim.node::<PhoneNode>(phone_id).app::<AcuteMonApp>(app);
        assert_eq!(am.records.len(), 20);
        assert!(
            (am.records.completion() - 1.0).abs() < 1e-12,
            "completion {} with {} retries",
            am.records.completion(),
            am.records.total_retries()
        );
        assert!(am.finished_at().is_some());
        // The loss actually bit: some probes needed more than one try,
        // and each retry re-warmed the path first.
        assert!(am.records.total_retries() > 0);
        assert!(am.records.iter().any(|r| r.recovered()));
        assert_eq!(am.bt.rewarms_sent, am.records.total_retries());
        // No record carries an error — every loss was recovered.
        assert!(am.records.iter().all(|r| r.error.is_none()));
    }

    #[test]
    fn retry_emits_spans_under_original_trace() {
        // A flap window eats the first attempt of probe 0; the retry
        // lands after the window. The recovery must be visible as
        // `retry`/`rewarm` spans in the same trace as the lost attempt,
        // and the link drop as a `lost` span.
        let plan = netem::FaultPlan::none()
            .with_flap(SimTime::from_millis(10), SimTime::from_millis(150))
            .with_seed(3);
        let mut cfg = AcuteMonConfig::new(phone::wired_ip(1), 1)
            .with_retries(3)
            .with_retry_backoff(SimDuration::from_millis(50));
        cfg.probe_timeout = SimDuration::from_millis(100);
        let (mut sim, phone_id, app) = world_with_fault(30, cfg, Some(&plan));
        let tracer = obs::Tracer::new();
        sim.set_tracer(&tracer);
        sim.run_until(SimTime::from_secs(5));
        let am = sim.node::<PhoneNode>(phone_id).app::<AcuteMonApp>(app);
        assert_eq!(am.records.len(), 1);
        let rec = &am.records[0];
        assert!(rec.completed());
        assert!(rec.recovered(), "attempts={}", rec.attempts);
        assert!(am.bt.rewarms_sent >= 1);

        let spans = tracer.spans();
        let retry = spans
            .iter()
            .find(|s| s.name == "retry" && s.cat == "fault")
            .expect("retry span");
        assert!(spans.iter().any(|s| s.name == "rewarm" && s.cat == "fault"));
        let lost = spans
            .iter()
            .find(|s| s.name == "lost" && s.cat == "fault")
            .expect("lost span from the link drop");
        // The retry span hangs off the trace of the dropped attempt.
        assert_eq!(retry.trace, lost.trace);
    }

    #[test]
    fn exhausted_budget_records_probe_error() {
        // Link down for the whole run: with a budget of 2 retries the
        // probe is tried 3 times then given up as Exhausted; with no
        // budget it is a plain Timeout.
        let plan = netem::FaultPlan::none()
            .with_flap(SimTime::ZERO, SimTime::from_secs(3600))
            .with_seed(1);
        let mut cfg = AcuteMonConfig::new(phone::wired_ip(1), 1)
            .with_retries(2)
            .with_retry_backoff(SimDuration::from_millis(10));
        cfg.probe_timeout = SimDuration::from_millis(50);
        let (mut sim, phone_id, app) = world_with_fault(30, cfg.clone(), Some(&plan));
        sim.run_until(SimTime::from_secs(30));
        let am = sim.node::<PhoneNode>(phone_id).app::<AcuteMonApp>(app);
        let rec = &am.records[0];
        assert!(!rec.completed());
        assert_eq!(rec.attempts, 3);
        assert_eq!(rec.error, Some(ProbeError::Exhausted { attempts: 3 }));
        assert!(am.finished_at().is_some(), "run must still terminate");

        cfg.max_retries = 0;
        let (mut sim, phone_id, app) = world_with_fault(30, cfg, Some(&plan));
        sim.run_until(SimTime::from_secs(30));
        let am = sim.node::<PhoneNode>(phone_id).app::<AcuteMonApp>(app);
        assert_eq!(am.records[0].attempts, 1);
        assert_eq!(am.records[0].error, Some(ProbeError::Timeout));
    }

    #[test]
    fn probe_count_is_bounded_by_the_port_encoding() {
        let ip = phone::wired_ip(1);
        let _ = AcuteMonApp::new(AcuteMonConfig::new(ip, 65_536));
        let _ = AcuteMonApp::new(AcuteMonConfig::multi(vec![ip; 4], 16_384));
        let over = std::panic::catch_unwind(|| AcuteMonApp::new(AcuteMonConfig::new(ip, 65_537)));
        assert!(over.is_err(), "65,537 probes wrap their 16-bit ports");
    }

    const NEAR: Ip = Ip::new(10, 0, 0, 1);
    const FAR: Ip = Ip::new(10, 0, 0, 2);

    /// Phone → switch → {20 ms link → near server, 80 ms link → far}.
    fn two_targets(k: u32) -> (Sim<Msg>, simcore::NodeId, usize) {
        let mut sim = Sim::new(55);
        let sw = sim.add_node(Box::new(SwitchNode::new(SimDuration::from_micros(20))));
        let near = sim.add_node(Box::new(ServerNode::new(50, ServerConfig::standard(NEAR))));
        let far = sim.add_node(Box::new(ServerNode::new(51, ServerConfig::standard(FAR))));
        let l_near = sim.add_node(Box::new(LinkNode::new(LinkParams::delay_ms(10))));
        let l_far = sim.add_node(Box::new(LinkNode::new(LinkParams::delay_ms(40))));
        sim.node_mut::<LinkNode>(l_near).connect(sw, near);
        sim.node_mut::<LinkNode>(l_far).connect(sw, far);
        sim.node_mut::<SwitchNode>(sw).add_route(NEAR, l_near);
        sim.node_mut::<SwitchNode>(sw).add_route(FAR, l_far);
        let mut ph = PhoneNode::new(1, phone::nexus5(), phone::wlan_ip(100), sw);
        let app = ph.install_app(
            Box::new(AcuteMonApp::new(AcuteMonConfig::multi(vec![NEAR, FAR], k))),
            RuntimeKind::Native,
        );
        let phone_id = sim.add_node(Box::new(ph));
        // Responses route back to the phone.
        sim.node_mut::<SwitchNode>(sw)
            .add_route(phone::wlan_ip(100), phone_id);
        (sim, phone_id, app)
    }

    #[test]
    fn per_target_rtts_separate_cleanly() {
        let (mut sim, phone_id, app) = two_targets(10);
        sim.run_until(SimTime::from_secs(10));
        let m = sim.node::<PhoneNode>(phone_id).app::<AcuteMonApp>(app);
        assert!(m.finished_at().is_some());
        let near = m.records_for(0);
        let far = m.records_for(1);
        assert_eq!(near.len(), 10);
        assert_eq!(far.len(), 10);
        assert!((near.completion() - 1.0).abs() < 1e-12);
        assert!((far.completion() - 1.0).abs() < 1e-12);
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        let m_near = mean(near.du());
        let m_far = mean(far.du());
        assert!((m_near - 20.0).abs() < 5.0, "near {m_near}");
        assert!((m_far - 80.0).abs() < 5.0, "far {m_far}");
    }

    #[test]
    fn background_cost_is_shared_not_per_target() {
        let (mut sim, phone_id, app) = two_targets(5);
        sim.run_until(SimTime::from_secs(10));
        let m = sim.node::<PhoneNode>(phone_id).app::<AcuteMonApp>(app);
        assert_eq!(m.bt.warmup_sent, 1);
        // Duration ≈ 5×20 + 5×80 ms = 500 ms → ~25 background packets,
        // NOT 2× that.
        let dur_ms = m.finished_at().unwrap().as_ms_f64();
        let expect = dur_ms / 20.0;
        let got = m.bt.background_sent as f64;
        assert!(
            (got - expect).abs() <= 4.0,
            "bg {got} vs expected ~{expect}"
        );
    }

    #[test]
    fn probes_interleave_round_robin() {
        let (mut sim, phone_id, app) = two_targets(4);
        sim.run_until(SimTime::from_secs(10));
        let m = sim.node::<PhoneNode>(phone_id).app::<AcuteMonApp>(app);
        // Target 0's probe p is always sent before target 0's probe p+1,
        // and between them a probe to target 1 happened.
        let near = m.records_for(0);
        let far = m.records_for(1);
        for p in 0..3 {
            assert!(near[p].tou < far[p].tou);
            assert!(far[p].tou < near[p + 1].tou);
        }
    }

    #[test]
    #[should_panic(expected = "port-encoding range")]
    fn oversized_session_rejected() {
        let _ = AcuteMonApp::new(AcuteMonConfig::multi(vec![NEAR; 100], 1000));
    }
}
