//! The phone node: the full TX/RX delay pipeline of Fig. 1, with apps on
//! top and the station MAC below.
//!
//! TX: `tou` (app) → runtime crossing → `tok` (kernel) → `tov` (driver
//! `dhd_start_xmit`) → [bus wake if asleep] + driver work → `tbus`
//! (`dhdsdio_txpkt`) → bus transfer → NIC (the [`StaMacNode`] handles the
//! PSM side and the air).
//!
//! RX: NIC delivery → `tiv` (`dhdsdio_isr`) → [bus wake if asleep] +
//! driver work → `trxf` (`dhd_rxf_enqueue`) → `tik` (`netif_rx_ni`) →
//! runtime crossing of the claiming app → `tiu` (app).
//!
//! [`StaMacNode`]: phy80211::StaMacNode

use std::collections::HashMap;

#[cfg(test)]
use simcore::SimTime;
use simcore::{Ctx, Node, NodeId, SimDuration};
use wire::{Ip, Msg, Packet, PacketIdGen};

use crate::app::{App, AppCtx, PhoneCore, PhoneStats, APP_TIMER_BASE};
use crate::ledger::Ledger;
use crate::profiles::{PhoneProfile, RuntimeKind};
use crate::sdio::SdioBus;

/// A pipeline stage waiting on a timer.
#[derive(Debug)]
pub(crate) enum Pending {
    /// Packet crossing into the kernel (TX).
    KernelTx(Packet),
    /// Packet entering the driver (TX).
    DriverTx(Packet),
    /// Packet written to the bus (TX).
    BusTx(Packet),
    /// Driver finished reading the frame from the bus (RX).
    RxEnqueue(Packet),
    /// Kernel delivering to user space (RX).
    KernelRx(Packet),
    /// Runtime crossing into the claiming app (RX).
    AppRx(Packet, usize),
}

/// Record a complete pipeline-stage span for `pkt_id` if the packet is
/// part of a causal trace. Free when tracing is off or the packet is
/// untraced.
fn trace_stage(
    ctx: &Ctx<'_, Msg>,
    pkt_id: u64,
    name: &'static str,
    cat: &'static str,
    start: simcore::SimTime,
    end: simcore::SimTime,
) -> Option<obs::SpanId> {
    let tracer = ctx.tracer();
    let tc = tracer.packet_ctx(pkt_id)?;
    Some(tracer.span(
        tc.trace,
        Some(tc.root),
        name,
        cat,
        start.as_nanos(),
        end.as_nanos(),
    ))
}

impl PhoneCore {
    pub(crate) fn alloc_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        debug_assert!(t < APP_TIMER_BASE, "token space exhausted");
        t
    }

    pub(crate) fn pending_insert(&mut self, token: u64, p: Pending) {
        self.pending.insert(token, p);
    }
}

struct AppSlot {
    app: Option<Box<dyn App>>,
    runtime: RuntimeKind,
}

/// The phone.
pub struct PhoneNode {
    core: PhoneCore,
    apps: Vec<AppSlot>,
}

impl PhoneNode {
    /// Create a phone with the given profile and WLAN address, attached to
    /// the station-MAC node `sta`. `source` seeds its packet-id space.
    pub fn new(source: u32, profile: PhoneProfile, ip: Ip, sta: NodeId) -> PhoneNode {
        let bus = SdioBus::new(profile.bus.tis(), true);
        PhoneNode {
            core: PhoneCore {
                profile,
                ip,
                sta,
                bus,
                ledger: Ledger::new(),
                ids: PacketIdGen::new(source),
                next_token: 1,
                pending: HashMap::new(),
                kernel_icmp_echo: true,
                stats: PhoneStats::default(),
            },
            apps: Vec::new(),
        }
    }

    /// Install an app with the given runtime kind; returns its index.
    pub fn install_app(&mut self, app: Box<dyn App>, runtime: RuntimeKind) -> usize {
        self.apps.push(AppSlot {
            app: Some(app),
            runtime,
        });
        self.apps.len() - 1
    }

    /// Typed view of an installed app (for result extraction after a run).
    ///
    /// # Panics
    /// Panics if the index or type is wrong.
    pub fn app<T: 'static>(&self, idx: usize) -> &T {
        let app: &dyn App = &**self.apps[idx].app.as_ref().expect("app in dispatch");
        app.as_any().downcast_ref::<T>().expect("app type mismatch")
    }

    /// Mutable typed view of an installed app (e.g. to attach telemetry
    /// before a run).
    ///
    /// # Panics
    /// Panics if the index or type is wrong.
    pub fn app_mut<T: 'static>(&mut self, idx: usize) -> &mut T {
        let app: &mut dyn App = &mut **self.apps[idx].app.as_mut().expect("app in dispatch");
        app.as_any_mut()
            .downcast_mut::<T>()
            .expect("app type mismatch")
    }

    /// The phone's core state (ledger, bus, stats, profile).
    pub fn core(&self) -> &PhoneCore {
        &self.core
    }

    /// Mutable core access (e.g. to disable bus sleep for an ablation).
    pub fn core_mut(&mut self) -> &mut PhoneCore {
        &mut self.core
    }

    /// Convenience: the timestamp ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.core.ledger
    }

    /// Convenience: the profile.
    pub fn profile(&self) -> &PhoneProfile {
        &self.core.profile
    }

    fn with_app<R>(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        idx: usize,
        f: impl FnOnce(&mut Box<dyn App>, &mut AppCtx<'_, '_>) -> R,
    ) -> R {
        let runtime = self.apps[idx].runtime;
        let mut app = self.apps[idx].app.take().expect("reentrant app dispatch");
        let r = {
            let mut actx = AppCtx {
                sim: ctx,
                core: &mut self.core,
                app_idx: idx,
                runtime,
            };
            f(&mut app, &mut actx)
        };
        self.apps[idx].app = Some(app);
        r
    }

    fn take_pending(&mut self, token: u64) -> Option<Pending> {
        self.core.pending.remove(&token)
    }

    fn schedule(&mut self, ctx: &mut Ctx<'_, Msg>, delay: SimDuration, p: Pending) {
        let token = self.core.alloc_token();
        self.core.pending_insert(token, p);
        ctx.set_timer(delay, token);
    }

    /// TX stage 2: the kernel saw the packet.
    fn kernel_tx(&mut self, ctx: &mut Ctx<'_, Msg>, packet: Packet) {
        let now = ctx.now();
        self.core.ledger.set_tok(packet.id, now);
        let d = self.core.profile.kernel_tx.sample(ctx.rng());
        trace_stage(ctx, packet.id, "kernel_tx", "kernel", now, now + d);
        self.schedule(ctx, d, Pending::DriverTx(packet));
    }

    /// TX stage 3: driver entry; bus wake if needed, then driver work.
    fn driver_tx(&mut self, ctx: &mut Ctx<'_, Msg>, packet: Packet) {
        let now = ctx.now();
        self.core.ledger.set_tov(packet.id, now);
        let asleep = !self.core.bus.is_awake(now);
        let wake = if asleep {
            self.core.profile.bus.tx_wake.sample(ctx.rng())
        } else {
            SimDuration::ZERO
        };
        let base = self.core.profile.bus.tx_base.sample(ctx.rng());
        let total = wake + base;
        self.core.bus.touch(now, now + total);
        // The sdio_wake span covers the whole driver op when it found the
        // bus asleep — the same `ready_at − now` interval the
        // `phone.sdio.wake_latency_ms` histogram observes in
        // `SdioBus::touch`, so span totals reconcile with metric sums.
        let name = if asleep { "sdio_wake" } else { "driver_tx" };
        if let Some(span) = trace_stage(ctx, packet.id, name, "driver", now, now + total) {
            if asleep {
                ctx.tracer().attr(span, "dir", "tx");
                ctx.tracer().attr(span, "wake_ms", wake.as_ms_f64());
            }
        }
        self.schedule(ctx, total, Pending::BusTx(packet));
    }

    /// TX stage 4: data on the bus; hand to the NIC after the transfer.
    fn bus_tx(&mut self, ctx: &mut Ctx<'_, Msg>, packet: Packet) {
        let now = ctx.now();
        self.core.ledger.set_tbus(packet.id, now);
        self.core.stats.tx_pkts += 1;
        let xfer = self.core.profile.bus.xfer.sample(ctx.rng());
        trace_stage(ctx, packet.id, "bus_tx", "driver", now, now + xfer);
        let sta = self.core.sta;
        ctx.send(sta, xfer, Msg::Wire(packet));
    }

    /// RX stage 1: interrupt from the NIC.
    fn rx_isr(&mut self, ctx: &mut Ctx<'_, Msg>, packet: Packet) {
        let now = ctx.now();
        self.core.ledger.set_tiv(packet.id, now);
        self.core.stats.rx_pkts += 1;
        let asleep = !self.core.bus.is_awake(now);
        let wake = if asleep {
            self.core.profile.bus.rx_wake.sample(ctx.rng())
        } else {
            SimDuration::ZERO
        };
        let base = self.core.profile.bus.rx_base.sample(ctx.rng());
        let total = wake + base;
        self.core.bus.touch(now, now + total);
        // As in `driver_tx`: the asleep case is one `sdio_wake` span with
        // exactly the histogram-observed duration.
        let name = if asleep { "sdio_wake" } else { "driver_rx" };
        if let Some(span) = trace_stage(ctx, packet.id, name, "driver", now, now + total) {
            if asleep {
                ctx.tracer().attr(span, "dir", "rx");
                ctx.tracer().attr(span, "wake_ms", wake.as_ms_f64());
            }
        }
        self.schedule(ctx, total, Pending::RxEnqueue(packet));
    }

    /// RX stage 2: frames read off the bus and queued for the rx thread.
    fn rx_enqueue(&mut self, ctx: &mut Ctx<'_, Msg>, packet: Packet) {
        let now = ctx.now();
        self.core.ledger.set_trxf(packet.id, now);
        let d = self.core.profile.kernel_rx.sample(ctx.rng());
        trace_stage(ctx, packet.id, "kernel_rx", "kernel", now, now + d);
        self.schedule(ctx, d, Pending::KernelRx(packet));
    }

    /// RX stage 3: kernel delivery; demux to the claiming app.
    fn kernel_rx(&mut self, ctx: &mut Ctx<'_, Msg>, packet: Packet) {
        self.core.ledger.set_tik(packet.id, ctx.now());
        if self.core.kernel_icmp_echo {
            if let wire::L4::Icmp {
                kind: wire::IcmpKind::EchoRequest,
                ident,
                seq,
            } = packet.l4
            {
                // The kernel answers pings itself: the reply enters the TX
                // pipeline at the kernel stage, skipping any app runtime.
                let reply = packet.reply(
                    self.core.ids.next_id(),
                    wire::L4::Icmp {
                        kind: wire::IcmpKind::EchoReply,
                        ident,
                        seq,
                    },
                    packet.payload_len,
                    wire::PacketTag::Other,
                );
                let d = self.core.profile.kernel_tx.sample(ctx.rng());
                let now = ctx.now();
                self.core.ledger.set_tok(reply.id, now);
                // The echo turn-around continues the request's trace.
                ctx.tracer().rebind_packet(packet.id, reply.id);
                trace_stage(ctx, reply.id, "kernel_echo", "kernel", now, now + d);
                self.schedule(ctx, d, Pending::DriverTx(reply));
                return;
            }
        }
        let claimed = self
            .apps
            .iter()
            .position(|slot| slot.app.as_ref().map(|a| a.wants(&packet)).unwrap_or(false));
        match claimed {
            Some(idx) => {
                let runtime = self.apps[idx].runtime;
                let xing = self.core.profile.runtime_xing(runtime).sample(ctx.rng());
                let now = ctx.now();
                trace_stage(ctx, packet.id, "runtime_rx", "app", now, now + xing);
                self.schedule(ctx, xing, Pending::AppRx(packet, idx));
            }
            None => {
                self.core.stats.rx_unclaimed += 1;
            }
        }
    }

    /// RX stage 4: packet reaches user space.
    fn app_rx(&mut self, ctx: &mut Ctx<'_, Msg>, packet: Packet, idx: usize) {
        let now = ctx.now();
        self.core.ledger.set_tiu(packet.id, now);
        // The probe's user-level RTT ends here: close the root span.
        let tracer = ctx.tracer();
        if let Some(tc) = tracer.packet_ctx(packet.id) {
            tracer.end_span(tc.root, now.as_nanos());
        }
        self.with_app(ctx, idx, |app, actx| app.on_packet(actx, packet));
    }
}

impl Node<Msg> for PhoneNode {
    fn layer(&self) -> &'static str {
        "phone"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for idx in 0..self.apps.len() {
            self.with_app(ctx, idx, |app, actx| app.on_start(actx));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Wire(packet) => {
                debug_assert_eq!(from, self.core.sta, "packet from unexpected node");
                self.rx_isr(ctx, packet);
            }
            Msg::TxDone { .. } | Msg::TxFailed { .. } => {}
            other => debug_assert!(false, "phone got unexpected message {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        if tag & APP_TIMER_BASE != 0 {
            let idx = ((tag >> 32) & 0x3FFF_FFFF) as usize;
            let user = (tag & 0xFFFF_FFFF) as u32;
            self.with_app(ctx, idx, |app, actx| app.on_timer(actx, user));
            return;
        }
        match self.take_pending(tag) {
            Some(Pending::KernelTx(p)) => self.kernel_tx(ctx, p),
            Some(Pending::DriverTx(p)) => self.driver_tx(ctx, p),
            Some(Pending::BusTx(p)) => self.bus_tx(ctx, p),
            Some(Pending::RxEnqueue(p)) => self.rx_enqueue(ctx, p),
            Some(Pending::KernelRx(p)) => self.kernel_rx(ctx, p),
            Some(Pending::AppRx(p, idx)) => self.app_rx(ctx, p, idx),
            None => debug_assert!(false, "phone timer with no pending op (tag {tag})"),
        }
    }
}

/// A minimal helper used by tests and examples: an IP address in the
/// testbed's WLAN subnet.
pub fn wlan_ip(host: u8) -> Ip {
    Ip::new(192, 168, 1, host)
}

/// A minimal helper: an IP address in the testbed's wired subnet.
pub fn wired_ip(host: u8) -> Ip {
    Ip::new(10, 0, 0, host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::nexus5;
    use simcore::Sim;
    use wire::{IcmpKind, PacketTag, L4};

    /// Loopback NIC stand-in: echoes every packet back to the phone after
    /// a fixed network delay, swapping src/dst.
    struct EchoNic {
        delay: SimDuration,
        next_id: u64,
        seen_tx: Vec<(SimTime, Packet)>,
    }
    impl Node<Msg> for EchoNic {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
            if let Msg::Wire(p) = msg {
                self.seen_tx.push((ctx.now(), p));
                let reply = p.reply(
                    0xE000_0000 + self.next_id,
                    match p.l4 {
                        L4::Icmp { ident, seq, .. } => L4::Icmp {
                            kind: IcmpKind::EchoReply,
                            ident,
                            seq,
                        },
                        other => other,
                    },
                    p.payload_len,
                    PacketTag::Other,
                );
                self.next_id += 1;
                ctx.send(from, self.delay, Msg::Wire(reply));
            }
        }
    }

    /// A trivial ping app: sends one echo request at start, records the
    /// user-level RTT.
    struct OnePing {
        ident: u16,
        sent_at: Option<SimTime>,
        rtt_ms: Option<f64>,
        req_id: Option<u64>,
        resp_id: Option<u64>,
    }
    impl OnePing {
        fn new(ident: u16) -> OnePing {
            OnePing {
                ident,
                sent_at: None,
                rtt_ms: None,
                req_id: None,
                resp_id: None,
            }
        }
    }
    impl App for OnePing {
        fn on_start(&mut self, ctx: &mut AppCtx<'_, '_>) {
            self.sent_at = Some(ctx.now());
            let id = ctx.send(
                wired_ip(1),
                64,
                L4::Icmp {
                    kind: IcmpKind::EchoRequest,
                    ident: self.ident,
                    seq: 0,
                },
                56,
                PacketTag::Probe(0),
            );
            self.req_id = Some(id);
        }
        fn wants(&self, packet: &Packet) -> bool {
            matches!(packet.l4, L4::Icmp { kind: IcmpKind::EchoReply, ident, .. } if ident == self.ident)
        }
        fn on_packet(&mut self, ctx: &mut AppCtx<'_, '_>, packet: Packet) {
            self.resp_id = Some(packet.id);
            self.rtt_ms = Some(
                ctx.now()
                    .saturating_since(self.sent_at.unwrap())
                    .as_ms_f64(),
            );
        }
    }

    fn run_one_ping(net_delay_ms: u64) -> (Sim<Msg>, NodeId, usize) {
        let mut sim = Sim::new(5);
        let nic = sim.add_node(Box::new(EchoNic {
            delay: SimDuration::from_millis(net_delay_ms),
            next_id: 0,
            seen_tx: vec![],
        }));
        let mut phone = PhoneNode::new(1, nexus5(), wlan_ip(100), nic);
        let app = phone.install_app(Box::new(OnePing::new(7)), RuntimeKind::Native);
        let phone_id = sim.add_node(Box::new(phone));
        sim.run_until_idle(10_000);
        (sim, phone_id, app)
    }

    #[test]
    fn full_pipeline_stamps_every_layer() {
        let (sim, phone_id, app) = run_one_ping(30);
        let phone = sim.node::<PhoneNode>(phone_id);
        let ping = phone.app::<OnePing>(app);
        let req = ping.req_id.unwrap();
        let resp = ping.resp_id.unwrap();
        let s = phone.ledger().get(req).unwrap();
        assert!(s.tou.is_some() && s.tok.is_some() && s.tov.is_some() && s.tbus.is_some());
        assert!(s.tou < s.tok && s.tok < s.tov && s.tov < s.tbus);
        let r = phone.ledger().get(resp).unwrap();
        assert!(r.tiv.is_some() && r.trxf.is_some() && r.tik.is_some() && r.tiu.is_some());
        assert!(r.tiv < r.trxf && r.trxf < r.tik && r.tik < r.tiu);
    }

    #[test]
    fn cold_start_pays_bus_wake_on_tx() {
        let (sim, phone_id, app) = run_one_ping(10);
        let phone = sim.node::<PhoneNode>(phone_id);
        let ping = phone.app::<OnePing>(app);
        let s = phone.ledger().get(ping.req_id.unwrap()).unwrap();
        // Bus starts asleep: dvsend = wake (7..13) + base (0.09..0.84).
        let dvsend = s.dvsend_ms().unwrap();
        assert!(dvsend > 7.0, "dvsend={dvsend}");
        assert!(dvsend < 14.0, "dvsend={dvsend}");
        assert_eq!(phone.core().bus.stats.wakeups, 1);
        // 10 ms RTT < Tis: the response finds the bus awake.
        let r = phone.ledger().get(ping.resp_id.unwrap()).unwrap();
        let dvrecv = r.dvrecv_ms().unwrap();
        assert!(dvrecv < 3.0, "dvrecv={dvrecv}");
    }

    #[test]
    fn long_rtt_pays_rx_wake_too() {
        // 60 ms RTT > Tis=50ms: the bus demotes while waiting and the
        // response pays the RX wake — the Nexus-5 pattern of Table 2.
        let (sim, phone_id, app) = run_one_ping(60);
        let phone = sim.node::<PhoneNode>(phone_id);
        let ping = phone.app::<OnePing>(app);
        let r = phone.ledger().get(ping.resp_id.unwrap()).unwrap();
        let dvrecv = r.dvrecv_ms().unwrap();
        assert!(dvrecv > 8.0, "dvrecv={dvrecv}");
        assert_eq!(phone.core().bus.stats.wakeups, 2);
        // And the user-level RTT is inflated accordingly.
        let rtt = ping.rtt_ms.unwrap();
        assert!(rtt > 60.0 + 15.0, "rtt={rtt}");
    }

    #[test]
    fn disabling_bus_sleep_removes_the_inflation() {
        let mut sim = Sim::new(5);
        let nic = sim.add_node(Box::new(EchoNic {
            delay: SimDuration::from_millis(60),
            next_id: 0,
            seen_tx: vec![],
        }));
        let mut phone = PhoneNode::new(1, nexus5(), wlan_ip(100), nic);
        phone.core_mut().bus.set_sleep_enabled(false);
        let app = phone.install_app(Box::new(OnePing::new(7)), RuntimeKind::Native);
        let phone_id = sim.add_node(Box::new(phone));
        sim.run_until_idle(10_000);
        let phone = sim.node::<PhoneNode>(phone_id);
        let rtt = phone.app::<OnePing>(app).rtt_ms.unwrap();
        assert!(rtt < 60.0 + 5.0, "rtt={rtt}");
        assert_eq!(phone.core().bus.stats.wakeups, 0);
    }

    #[test]
    fn dalvik_app_pays_more_user_kernel_overhead() {
        fn run(kind: RuntimeKind) -> f64 {
            let mut total = 0.0;
            for seed in 0..20 {
                let mut sim = Sim::new(seed);
                let nic = sim.add_node(Box::new(EchoNic {
                    delay: SimDuration::from_millis(10),
                    next_id: 0,
                    seen_tx: vec![],
                }));
                let mut phone = PhoneNode::new(1, nexus5(), wlan_ip(100), nic);
                let app = phone.install_app(Box::new(OnePing::new(7)), kind);
                let phone_id = sim.add_node(Box::new(phone));
                sim.run_until_idle(10_000);
                let phone = sim.node::<PhoneNode>(phone_id);
                let ping = phone.app::<OnePing>(app);
                // ∆du−k = du − dk.
                let s = phone.ledger().get(ping.req_id.unwrap()).unwrap();
                let r = phone.ledger().get(ping.resp_id.unwrap()).unwrap();
                let du = r.tiu.unwrap().saturating_since(s.tou.unwrap()).as_ms_f64();
                let dk = r.tik.unwrap().saturating_since(s.tok.unwrap()).as_ms_f64();
                total += du - dk;
            }
            total / 20.0
        }
        let native = run(RuntimeKind::Native);
        let dalvik = run(RuntimeKind::Dalvik);
        assert!(native < 1.0, "native ∆du−k = {native}");
        assert!(dalvik > native, "dalvik {dalvik} vs native {native}");
    }

    #[test]
    fn unclaimed_packets_counted() {
        let mut sim = Sim::new(5);
        let nic = sim.add_node(Box::new(EchoNic {
            delay: SimDuration::from_millis(5),
            next_id: 0,
            seen_tx: vec![],
        }));
        // App claims ident 7; inject a stray packet with another ident.
        let mut phone = PhoneNode::new(1, nexus5(), wlan_ip(100), nic);
        phone.install_app(Box::new(OnePing::new(7)), RuntimeKind::Native);
        let phone_id = sim.add_node(Box::new(phone));
        let stray = Packet {
            id: 999,
            src: wired_ip(1),
            dst: wlan_ip(100),
            ttl: 60,
            l4: L4::Icmp {
                kind: IcmpKind::EchoReply,
                ident: 99,
                seq: 0,
            },
            payload_len: 56,
            tag: PacketTag::Other,
        };
        sim.inject(nic, phone_id, SimTime::from_millis(1), Msg::Wire(stray));
        sim.run_until_idle(10_000);
        assert_eq!(sim.node::<PhoneNode>(phone_id).core().stats.rx_unclaimed, 1);
    }

    #[test]
    fn app_timers_roundtrip() {
        struct TimerApp {
            fired: Vec<(SimTime, u32)>,
        }
        impl App for TimerApp {
            fn on_start(&mut self, ctx: &mut AppCtx<'_, '_>) {
                ctx.set_timer(SimDuration::from_millis(5), 42);
                ctx.set_timer(SimDuration::from_millis(10), 43);
            }
            fn wants(&self, _p: &Packet) -> bool {
                false
            }
            fn on_packet(&mut self, _ctx: &mut AppCtx<'_, '_>, _p: Packet) {}
            fn on_timer(&mut self, ctx: &mut AppCtx<'_, '_>, tag: u32) {
                self.fired.push((ctx.now(), tag));
            }
        }
        let mut sim = Sim::new(0);
        let nic = sim.add_node(Box::new(EchoNic {
            delay: SimDuration::ZERO,
            next_id: 0,
            seen_tx: vec![],
        }));
        let mut phone = PhoneNode::new(1, nexus5(), wlan_ip(100), nic);
        let app = phone.install_app(Box::new(TimerApp { fired: vec![] }), RuntimeKind::Native);
        let phone_id = sim.add_node(Box::new(phone));
        sim.run_until_idle(100);
        let fired = &sim.node::<PhoneNode>(phone_id).app::<TimerApp>(app).fired;
        assert_eq!(
            fired,
            &vec![
                (SimTime::from_millis(5), 42),
                (SimTime::from_millis(10), 43)
            ]
        );
    }

    #[test]
    fn helpers() {
        assert_eq!(wlan_ip(100).to_string(), "192.168.1.100");
        assert_eq!(wired_ip(1).to_string(), "10.0.0.1");
    }
}
