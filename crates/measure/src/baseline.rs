//! The baselines of the paper's tool comparison (§3.1, §4.3): ping,
//! httping, MobiPerf's Java ping and (an extension curve) MobiPerf's
//! HTTP method. They differ only in the packet they send, what answers
//! it, the RTT they report and the runtime they run in; each
//! [`Baseline`] preset carries those differences as data, and one
//! [`BaselineApp`] runs them all. Each probes at a fixed interval —
//! ping's `-i`, 1 s by default — so sparse runs pay the SDIO demotion
//! and PSM timeouts on every probe, while a 10 ms interval keeps the
//! phone awake.

use obs::Snapshot;
use phone::{App, AppCtx, RuntimeKind};
use simcore::{SimDuration, SimTime};
use wire::{Ip, Packet, PacketTag, TcpFlags, L4};

use crate::probe::{ProbeKind, ProbeWire, ECHO_PORT, HTTP_PORT, MAX_PROBES};
use crate::record::{ping_report_quirk, RttRecord};

/// A baseline tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// ICMP ping as run from `adb shell`, with the integer-rounding
    /// reporting quirk that produces the negative ∆du−k of Fig. 3.
    Ping,
    /// httping \[18\]: a fresh TCP connect (SYN → SYN/ACK) per probe.
    Httping,
    /// MobiPerf's `InetAddress` method, reimplemented as the paper did:
    /// TCP control messages from a Dalvik app. `isReachable` falls back
    /// to the closed TCP echo port, so a RST answers too.
    JavaPing,
    /// MobiPerf's `HttpURLConnection` method: the handshake RTT, then
    /// the HTTP GET the connection was opened for.
    MobiperfHttp,
}

/// The `measure.<tool>.*` names a baseline's counts are exported under,
/// fixed at compile time so an export builds no string.
#[derive(Debug, Clone, Copy)]
struct MetricNames {
    sent: &'static str,
    received: &'static str,
    timeouts: &'static str,
    rtt_ms: &'static str,
}

/// The [`MetricNames`] of one tool.
macro_rules! metric_names {
    ($tool:literal) => {
        MetricNames {
            sent: concat!("measure.", $tool, ".sent"),
            received: concat!("measure.", $tool, ".received"),
            timeouts: concat!("measure.", $tool, ".timeouts"),
            rtt_ms: concat!("measure.", $tool, ".rtt_ms"),
        }
    };
}

/// What sets one baseline apart from the others.
#[derive(Debug, Clone, Copy)]
struct Preset {
    /// The probes' `tool` span attribute.
    name: &'static str,
    /// Its metric names, `measure.<name>.*`.
    metrics: MetricNames,
    wire: ProbeWire,
    /// Whether a RST completes a TCP probe (a SYN/ACK always does).
    rst_answers: bool,
    /// Whether the tool reports ping's rounded RTT instead of `du`.
    rounds: bool,
    /// Payload of the HTTP GET sent on each answered connection.
    get_len: Option<usize>,
    runtime: RuntimeKind,
}

impl Baseline {
    fn preset(self) -> Preset {
        let syn = |port, session| ProbeWire {
            kind: ProbeKind::TcpConnect,
            port,
            session,
        };
        match self {
            Baseline::Ping => Preset {
                name: "ping",
                metrics: metric_names!("ping"),
                wire: ProbeWire {
                    kind: ProbeKind::Icmp,
                    port: 0,
                    session: 0x1111,
                },
                rst_answers: false,
                rounds: true,
                get_len: None,
                runtime: RuntimeKind::Native,
            },
            Baseline::Httping => Preset {
                name: "httping",
                metrics: metric_names!("httping"),
                wire: syn(HTTP_PORT, 42_000),
                rst_answers: false,
                rounds: false,
                get_len: None,
                runtime: RuntimeKind::Native,
            },
            Baseline::JavaPing => Preset {
                name: "javaping",
                metrics: metric_names!("javaping"),
                wire: syn(ECHO_PORT, 51_000),
                rst_answers: true,
                rounds: false,
                get_len: None,
                runtime: RuntimeKind::Dalvik,
            },
            Baseline::MobiperfHttp => Preset {
                name: "mobiperf_http",
                metrics: metric_names!("mobiperf_http"),
                wire: syn(HTTP_PORT, 55_000),
                rst_answers: false,
                rounds: false,
                get_len: Some(160),
                runtime: RuntimeKind::Dalvik,
            },
        }
    }

    /// The runtime the tool runs in: a native binary, or the Dalvik VM
    /// that adds user–kernel overhead. Install the app with it.
    pub fn runtime(self) -> RuntimeKind {
        self.preset().runtime
    }
}

const TAG_SEND: u32 = 1;
const TAG_DEADLINE: u32 = 2;
/// How long the session waits for replies after its last probe.
const DEADLINE: SimDuration = SimDuration::from_secs(3);

/// A baseline session: one probe every `interval`, one [`RttRecord`]
/// per probe.
pub struct BaselineApp {
    preset: Preset,
    dst: Ip,
    count: u32,
    interval: SimDuration,
    /// Per-probe records (index = probe number).
    pub records: Vec<RttRecord>,
    /// HTTP responses received (the GETs after MobiPerf's handshakes).
    pub http_responses: u64,
    finished_at: Option<SimTime>,
}

impl BaselineApp {
    /// `count` probes of `tool` to `dst`, one every `interval`.
    ///
    /// # Panics
    ///
    /// If `count` exceeds [`MAX_PROBES`], the port/sequence encoding range.
    pub fn new(tool: Baseline, dst: Ip, count: u32, interval: SimDuration) -> BaselineApp {
        assert!(
            u64::from(count) <= MAX_PROBES,
            "{count} probes exceed the port-encoding range ({MAX_PROBES})"
        );
        BaselineApp {
            preset: tool.preset(),
            dst,
            count,
            interval,
            records: Vec::new(),
            http_responses: 0,
            finished_at: None,
        }
    }

    /// Write this session's counts into `out` as `measure.<tool>.*`,
    /// all from its records: probes `sent`, probes `received` and their
    /// `rtt_ms` (the true `du`), and the `timeouts`, probes still
    /// unanswered when the session's deadline ended it.
    pub fn export(&self, out: &mut Snapshot) {
        let names = &self.preset.metrics;
        let rtt_ms = out.histogram_mut(names.rtt_ms);
        let mut received = 0;
        for du in self.records.iter().filter_map(RttRecord::du_ms) {
            rtt_ms.observe(du);
            received += 1;
        }
        let timeouts = match self.finished_at {
            Some(_) => self.records.len() as u64 - received,
            None => 0,
        };
        out.add_counter(names.sent, self.records.len() as u64);
        out.add_counter(names.received, received);
        out.add_counter(names.timeouts, timeouts);
    }

    fn sent(&self) -> u32 {
        self.records.len() as u32
    }

    fn send_probe(&mut self, ctx: &mut AppCtx<'_, '_>) {
        let n = self.sent();
        let (l4, payload) = self.preset.wire.request(n);
        let id = ctx.send(self.dst, 64, l4, payload, PacketTag::Probe(n));
        if let Some(tc) = ctx.tracer().packet_ctx(id) {
            ctx.tracer().attr(tc.root, "tool", self.preset.name);
        }
        self.records.push(RttRecord::sent(n, id, ctx.now()));
        if self.sent() < self.count {
            ctx.set_timer(self.interval, TAG_SEND);
        } else {
            ctx.set_timer(DEADLINE, TAG_DEADLINE);
        }
    }

    /// Does this reply complete its probe?
    fn answers(&self, packet: &Packet) -> bool {
        match packet.l4 {
            L4::Tcp { .. } => {
                packet.tcp_has(TcpFlags::SYN | TcpFlags::ACK)
                    || (self.preset.rst_answers && packet.tcp_has(TcpFlags::RST))
            }
            _ => true,
        }
    }
}

impl App for BaselineApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_, '_>) {
        self.send_probe(ctx);
    }

    fn wants(&self, packet: &Packet) -> bool {
        self.preset.wire.probe_of(packet, self.sent()).is_some()
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<'_, '_>, packet: Packet) {
        let Some(n) = self.preset.wire.probe_of(&packet, self.sent()) else {
            return;
        };
        if packet.tcp_has(TcpFlags::PSH) {
            self.http_responses += 1; // the GET's response
            return;
        }
        // Records are final once the session has finished: an answer
        // after the deadline leaves its probe lost.
        if self.finished_at.is_some() || !self.answers(&packet) {
            return;
        }
        let now = ctx.now();
        let rec = &mut self.records[n as usize];
        if rec.tiu.is_none() {
            rec.resp_id = Some(packet.id);
            rec.tiu = Some(now);
            let du = now.saturating_since(rec.tou).as_ms_f64();
            rec.reported_ms = Some(if self.preset.rounds {
                ping_report_quirk(du, ctx.profile().ping_integer_rounding)
            } else {
                du
            });
            if self.sent() == self.count && self.records.iter().all(|r| r.completed()) {
                self.finished_at = Some(now);
            }
        }
        if let Some(len) = self.preset.get_len {
            // The connection is open: send the GET on it.
            let (l4, _) = ProbeWire {
                kind: ProbeKind::TcpData,
                ..self.preset.wire
            }
            .request(n);
            ctx.send(self.dst, 64, l4, len, PacketTag::Other);
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_, '_>, tag: u32) {
        match tag {
            TAG_SEND => self.send_probe(ctx),
            TAG_DEADLINE if self.finished_at.is_none() => self.finished_at = Some(ctx.now()),
            _ => {}
        }
    }

    /// At the answer that completes every probe, or 3 s after the last
    /// probe was sent.
    fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordSet;
    use crate::testutil::{EchoWire, TestWorld};

    fn install(w: &mut TestWorld, tool: Baseline, count: u32, interval: SimDuration) -> usize {
        let app = BaselineApp::new(tool, phone::wired_ip(1), count, interval);
        w.install(Box::new(app), tool.runtime())
    }

    /// The session's counts at `app`, exported after the run.
    fn exported(w: &TestWorld, app: usize) -> Snapshot {
        let mut snap = Snapshot::default();
        w.app::<BaselineApp>(app).export(&mut snap);
        snap
    }

    #[test]
    fn hundred_probes_complete() {
        let mut w = TestWorld::new(3, EchoWire::delay_ms(30));
        let app = install(&mut w, Baseline::Ping, 100, SimDuration::from_millis(10));
        w.run_secs(10);
        let ping = w.app::<BaselineApp>(app);
        assert_eq!(ping.records.len(), 100);
        assert!((ping.records.completion() - 1.0).abs() < 1e-12);
        assert!(ping.finished_at().is_some());
        // All RTTs at least the network delay.
        for du in ping.records.du() {
            assert!(du >= 30.0, "du={du}");
        }
    }

    #[test]
    fn small_interval_keeps_rtts_tight() {
        let mut w = TestWorld::new(4, EchoWire::delay_ms(30));
        let app = install(&mut w, Baseline::Ping, 50, SimDuration::from_millis(10));
        w.run_secs(10);
        let du = w.app::<BaselineApp>(app).records.du();
        // After the first (cold) probe, the bus stays awake: RTTs ~30-35.
        let warm = &du[1..];
        let mean = warm.iter().sum::<f64>() / warm.len() as f64;
        assert!(mean < 36.0, "mean={mean}");
    }

    #[test]
    fn one_second_interval_inflates_rtts() {
        let mut w = TestWorld::new(5, EchoWire::delay_ms(60));
        let app = install(&mut w, Baseline::Ping, 20, SimDuration::from_secs(1));
        w.run_secs(30);
        let du = w.app::<BaselineApp>(app).records.du();
        let mean = du.iter().sum::<f64>() / du.len() as f64;
        // Nexus 5 pattern: TX wake (~10) + RX wake (~12) on top of 60.
        assert!(mean > 75.0, "mean={mean}");
        assert!(mean < 95.0, "mean={mean}");
    }

    #[test]
    fn unanswered_probes_recorded_as_lost() {
        let mut w = TestWorld::new(6, EchoWire::blackhole());
        let app = install(&mut w, Baseline::Ping, 5, SimDuration::from_millis(100));
        w.run_secs(10);
        let ping = w.app::<BaselineApp>(app);
        assert_eq!(ping.records.len(), 5);
        assert_eq!(ping.records.completion(), 0.0);
        assert!(ping.finished_at().is_some());
    }

    #[test]
    fn an_answer_after_the_deadline_leaves_its_probe_lost() {
        // A 4 s path: the one answer reaches the phone a second after
        // the session's 3 s deadline.
        let mut w = TestWorld::new(15, EchoWire::delay_ms(4_000));
        let app = install(&mut w, Baseline::Ping, 1, SimDuration::from_secs(1));
        w.run_secs(10);
        let ping = w.app::<BaselineApp>(app);
        let rec = &ping.records[0];
        assert_eq!(ping.finished_at(), Some(rec.tou + DEADLINE));
        assert!(!rec.completed(), "late answer recorded at {:?}", rec.tiu);
        assert_eq!((rec.resp_id, rec.reported_ms), (None, None));
        let snap = exported(&w, app);
        assert_eq!(snap.counter("measure.ping.received"), Some(0));
        assert_eq!(snap.counter("measure.ping.timeouts"), Some(1));
    }

    #[test]
    fn each_lost_probe_counts_one_timeout() {
        let mut w = TestWorld::new(16, EchoWire::blackhole());
        let app = install(&mut w, Baseline::Ping, 5, SimDuration::from_millis(100));
        w.run_secs(20);
        let snap = exported(&w, app);
        assert_eq!(snap.counter("measure.ping.sent"), Some(5));
        assert_eq!(snap.counter("measure.ping.timeouts"), Some(5));
        for gone in ["measure.ping.retries", "measure.ping.rewarms"] {
            assert_eq!(snap.counter(gone), None, "{gone}");
        }
        // An answered session counts none.
        let mut w = TestWorld::new(17, EchoWire::delay_ms(30));
        let app = install(&mut w, Baseline::Ping, 5, SimDuration::from_millis(100));
        w.run_secs(20);
        let snap = exported(&w, app);
        assert_eq!(snap.counter("measure.ping.received"), Some(5));
        assert_eq!(snap.counter("measure.ping.timeouts"), Some(0));
    }

    #[test]
    #[should_panic(expected = "port-encoding range")]
    fn probe_count_is_bounded_by_the_port_encoding() {
        let ip = phone::wired_ip(1);
        let _ = BaselineApp::new(Baseline::Ping, ip, 65_536, SimDuration::from_secs(1));
        let _ = BaselineApp::new(Baseline::Httping, ip, 65_537, SimDuration::from_secs(1));
    }

    #[test]
    fn connect_rtt_measured() {
        let mut w = TestWorld::new(7, EchoWire::delay_ms(30));
        let app = install(&mut w, Baseline::Httping, 10, SimDuration::from_millis(200));
        w.run_secs(10);
        let h = w.app::<BaselineApp>(app);
        assert_eq!(h.records.len(), 10);
        assert!((h.records.completion() - 1.0).abs() < 1e-12);
        for du in h.records.du() {
            assert!((30.0..60.0).contains(&du), "du={du}");
        }
    }

    #[test]
    fn default_interval_pays_wake_penalty() {
        let mut w = TestWorld::new(8, EchoWire::delay_ms(30));
        let app = install(&mut w, Baseline::Httping, 10, SimDuration::from_secs(1));
        w.run_secs(15);
        let du = w.app::<BaselineApp>(app).records.du();
        let mean = du.iter().sum::<f64>() / du.len() as f64;
        // Every probe pays ~10 ms TX wake on a Nexus 5.
        assert!(mean > 39.0, "mean={mean}");
    }

    #[test]
    fn each_probe_uses_fresh_connection() {
        let mut w = TestWorld::new(9, EchoWire::delay_ms(10));
        let app = install(&mut w, Baseline::Httping, 5, SimDuration::from_millis(100));
        w.run_secs(5);
        let h = w.app::<BaselineApp>(app);
        let mut req_ids: Vec<u64> = h.records.iter().map(|r| r.req_id).collect();
        req_ids.dedup();
        assert_eq!(req_ids.len(), 5);
    }

    #[test]
    fn completes_via_rst_from_closed_port() {
        let mut w = TestWorld::new(11, EchoWire::delay_ms(30));
        let app = install(
            &mut w,
            Baseline::JavaPing,
            10,
            SimDuration::from_millis(200),
        );
        w.run_secs(10);
        let j = w.app::<BaselineApp>(app);
        assert_eq!(j.records.len(), 10);
        assert!((j.records.completion() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dalvik_overhead_makes_it_slower_than_native_httping() {
        // Same probe pattern, same network: the Dalvik runtime crossing
        // should show up in du.
        let mut w = TestWorld::new(12, EchoWire::delay_ms(30));
        let jp = install(&mut w, Baseline::JavaPing, 30, SimDuration::from_millis(50));
        let hp = install(&mut w, Baseline::Httping, 30, SimDuration::from_millis(50));
        w.run_secs(10);
        let jdu = w.app::<BaselineApp>(jp).records.du();
        let hdu = w.app::<BaselineApp>(hp).records.du();
        let jm = jdu.iter().sum::<f64>() / jdu.len() as f64;
        let hm = hdu.iter().sum::<f64>() / hdu.len() as f64;
        assert!(jm > hm, "java {jm} vs native {hm}");
    }

    #[test]
    fn handshake_rtt_and_get_both_happen() {
        let mut w = TestWorld::new(13, EchoWire::delay_ms(30));
        let app = install(
            &mut w,
            Baseline::MobiperfHttp,
            8,
            SimDuration::from_millis(300),
        );
        w.run_secs(10);
        let m = w.app::<BaselineApp>(app);
        assert_eq!(m.records.len(), 8);
        assert!((m.records.completion() - 1.0).abs() < 1e-12);
        // The follow-up GETs got answered too.
        assert_eq!(m.http_responses, 8);
        for du in m.records.du() {
            assert!((30.0..60.0).contains(&du), "du={du}");
        }
    }

    #[test]
    fn reported_rtt_is_handshake_not_get() {
        let mut w = TestWorld::new(14, EchoWire::delay_ms(40));
        let app = install(
            &mut w,
            Baseline::MobiperfHttp,
            5,
            SimDuration::from_millis(300),
        );
        w.run_secs(10);
        let m = w.app::<BaselineApp>(app);
        for r in &m.records {
            // One RTT (~40), not two (~80).
            let rep = r.reported_ms.unwrap();
            assert!(rep < 60.0, "reported {rep}");
        }
    }
}
