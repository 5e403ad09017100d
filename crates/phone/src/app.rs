//! The measurement-app API.
//!
//! Measurement tools (ping, httping, Java ping, AcuteMon, …) are [`App`]s
//! installed on a [`PhoneNode`](crate::PhoneNode). An app sees a
//! socket-like interface ([`AppCtx`]): it sends packets, sets timers, and
//! receives the packets it claims via [`App::wants`]. Everything an app
//! does goes through the phone's full delay pipeline — runtime crossing,
//! kernel, driver, SDIO bus, then the 802.11 MAC — so user-level
//! timestamps experience exactly the inflation the paper studies.

use simcore::{Ctx, DetRng, NodeId, SimDuration, SimTime};
use wire::{Ip, Msg, Packet, PacketIdGen, PacketTag, L4};

use crate::ledger::Ledger;
use crate::profiles::{PhoneProfile, RuntimeKind};
use crate::sdio::SdioBus;

/// Traffic/behaviour counters for a phone.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhoneStats {
    /// Packets handed to the NIC.
    pub tx_pkts: u64,
    /// Packets received from the NIC.
    pub rx_pkts: u64,
    /// Received packets no app claimed (dropped at the kernel).
    pub rx_unclaimed: u64,
}

/// The phone state the pipeline and the apps share (everything except the
/// apps themselves, so an app can borrow it mutably while being called).
pub struct PhoneCore {
    /// Hardware/software profile.
    pub profile: PhoneProfile,
    /// The phone's IP address on the WLAN.
    pub ip: Ip,
    /// The station-MAC node this phone's NIC talks to.
    pub(crate) sta: NodeId,
    /// Host-bus sleep state machine.
    pub bus: SdioBus,
    /// Multi-layer timestamp ledger.
    pub ledger: Ledger,
    pub(crate) ids: PacketIdGen,
    pub(crate) pending: crate::node::PendingStages,
    /// Whether the kernel answers ICMP echo requests itself (real Android
    /// kernels do; the ping2 baseline of Sui et al. depends on it).
    pub kernel_icmp_echo: bool,
    /// Counters.
    pub stats: PhoneStats,
}

/// Base for app timer tags (bit 62); pipeline stages' tags, their
/// slots in [`PhoneCore::pending`], stay far below it.
pub(crate) const APP_TIMER_BASE: u64 = 1 << 62;

/// What the phone hands an app while running one of its callbacks.
pub struct AppCtx<'a, 'b> {
    pub(crate) sim: &'a mut Ctx<'b, Msg>,
    pub(crate) core: &'a mut PhoneCore,
    pub(crate) app_idx: usize,
    pub(crate) runtime: RuntimeKind,
}

impl<'a, 'b> AppCtx<'a, 'b> {
    /// The current user-level clock.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The phone profile (for tools that adapt to the device).
    pub fn profile(&self) -> &PhoneProfile {
        &self.core.profile
    }

    /// This app's runtime kind.
    pub fn runtime(&self) -> RuntimeKind {
        self.runtime
    }

    /// Deterministic randomness.
    pub fn rng(&mut self) -> &mut DetRng {
        self.sim.rng()
    }

    /// Send a packet. Returns the packet id (use it to correlate layers).
    ///
    /// The send is non-blocking, exactly like `sendto(2)`: the packet
    /// enters the TX pipeline (runtime → kernel → driver → bus → NIC) and
    /// `tou` is stamped now.
    pub fn send(&mut self, dst: Ip, ttl: u8, l4: L4, payload_len: usize, tag: PacketTag) -> u64 {
        let id = self.core.ids.next_id();
        let packet = Packet {
            id,
            src: self.core.ip,
            dst,
            ttl,
            l4,
            payload_len,
            tag,
        };
        let now = self.sim.now();
        self.core.ledger.set_tou(id, now);
        // Runtime (user→kernel) crossing: Dalvik pays more than native.
        let xing = self
            .core
            .profile
            .runtime_xing(self.runtime)
            .sample(self.sim.rng());
        // Probe sends open a causal trace: a root span covering the whole
        // user-level RTT (ended when the reply reaches the app) plus the
        // first leaf, the TX runtime crossing. All no-ops when untraced.
        let tracer = self.sim.tracer();
        if tracer.is_enabled() {
            if let PacketTag::Probe(n) = tag {
                let trace = tracer.begin_trace();
                let root = tracer.start_span(trace, None, "probe", "app", now.as_nanos());
                tracer.attr(root, "probe", n);
                tracer.attr(root, "pkt", id);
                tracer.bind_packet(id, obs::TraceCtx { trace, root });
                tracer.span(
                    trace,
                    Some(root),
                    "runtime_tx",
                    "app",
                    now.as_nanos(),
                    (now + xing).as_nanos(),
                );
            }
        }
        let tag = self
            .core
            .pending
            .insert(crate::node::Pending::KernelTx(packet));
        self.sim.set_timer(xing, tag);
        id
    }

    /// Arrange for [`App::on_timer`] with `tag` after `delay`. `tag` must
    /// fit in 32 bits.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u32) {
        let encoded = APP_TIMER_BASE | ((self.app_idx as u64) << 32) | u64::from(tag);
        self.sim.set_timer(delay, encoded);
    }

    /// The causal span tracer (disabled unless the sim was given one).
    /// Tools use it to decorate their probes' root spans — e.g. a
    /// `tool` attribute — via [`obs::Tracer::packet_ctx`].
    pub fn tracer(&self) -> &obs::Tracer {
        self.sim.tracer()
    }
}

/// A measurement app installed on a phone.
pub trait App: simcore::AsAny {
    /// Called when the simulation starts.
    fn on_start(&mut self, _ctx: &mut AppCtx<'_, '_>) {}

    /// Socket demultiplexing: does this incoming packet belong to this
    /// app? The first app (in install order) that wants a packet gets it.
    fn wants(&self, packet: &Packet) -> bool;

    /// A claimed packet has reached user space (`tiu` is stamped).
    fn on_packet(&mut self, ctx: &mut AppCtx<'_, '_>, packet: Packet);

    /// A timer set via [`AppCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut AppCtx<'_, '_>, _tag: u32) {}

    /// When the app finished its measurement session, if it has: its
    /// records no longer change after it, so a driver may end the run
    /// there. An app with no session end never finishes (the default).
    fn finished_at(&self) -> Option<SimTime> {
        None
    }
}
