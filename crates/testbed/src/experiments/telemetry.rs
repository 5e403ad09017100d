//! An instrumented AcuteMon-vs-ping session: the standard Fig. 2 testbed,
//! with every layer's counts exported into one telemetry [`Snapshot`].
//!
//! This is the observability counterpart of the Table 3 / Fig. 3
//! experiments: the same per-probe breakdowns (`∆dk−v`, `∆dv−n`), but
//! cross-checked against what the layers themselves counted — SDIO bus
//! wake-ups and their promotion latency (`phone.sdio.wake_latency_ms`),
//! and PSM beacon buffering at the AP (`phy.ap.ps_buffer_wait_ms`).

use acutemon::{AcuteMonApp, AcuteMonConfig};
use measure::{Baseline, BaselineApp};
use obs::Snapshot;
use phone::{App, PhoneNode, RuntimeKind};
use simcore::{SimDuration, SimTime};

use crate::metrics::{breakdowns, ProbeBreakdown};
use crate::{addr, Testbed, TestbedConfig};

/// Which tool the instrumented session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryTool {
    /// AcuteMon (warm-up + keep-awake; the layers should stay awake).
    AcuteMon,
    /// ping at a 1 s interval (the layers sleep between probes).
    SlowPing,
}

/// The result of one instrumented session.
pub struct TelemetryRun {
    /// Per-probe layer breakdowns, joined the classic way (records +
    /// ledger + sniffers).
    pub breakdowns: Vec<ProbeBreakdown>,
    /// What the instrumented layers counted during the same run.
    pub snapshot: Snapshot,
}

impl TelemetryRun {
    /// Probes whose kernel→driver overhead exceeds `ms` (the SDIO
    /// promotion signature of Table 3).
    pub fn probes_with_dk_v_above(&self, ms: f64) -> usize {
        self.breakdowns
            .iter()
            .filter(|b| b.dk_v().is_some_and(|v| v > ms))
            .count()
    }

    /// Probes whose driver→network overhead exceeds `ms` (the PSM
    /// beacon-buffering signature).
    pub fn probes_with_dv_n_above(&self, ms: f64) -> usize {
        self.breakdowns
            .iter()
            .filter(|b| b.dv_n().is_some_and(|v| v > ms))
            .count()
    }
}

/// Run `k` probes of `tool` on a Nexus-5 testbed over a `rtt_ms` path,
/// and read what every layer counted.
///
/// A path longer than the Nexus 5's `Tip` (≈ 205 ms, Table 4) dozes the
/// STA mid-RTT, so slow probing exercises both inflation sources: SDIO
/// bus promotion on every crossing (Broadcom, ≈ 11 ms, Table 3) and
/// beacon buffering of the response at the AP.
pub fn run(tool: TelemetryTool, k: u32, seed: u64, rtt_ms: u64) -> TelemetryRun {
    let horizon = match tool {
        TelemetryTool::AcuteMon => SimTime::from_secs(u64::from(k) / 10 + 10),
        TelemetryTool::SlowPing => SimTime::from_secs(u64::from(k) + 10),
    };
    let mut tb = Testbed::build(TestbedConfig::new(seed, phone::nexus5(), rtt_ms));
    let app: Box<dyn App> = match tool {
        TelemetryTool::AcuteMon => Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, k))),
        TelemetryTool::SlowPing => Box::new(BaselineApp::new(
            Baseline::Ping,
            addr::SERVER,
            k,
            SimDuration::from_secs(1),
        )),
    };
    let idx = tb.install_app(app, RuntimeKind::Native);
    tb.run_until(horizon);
    let mut counts = Snapshot::default();
    tb.sim.export(&mut counts);
    tb.export(&mut counts);
    let index = tb.capture_index();
    let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
    let records = match tool {
        TelemetryTool::AcuteMon => {
            let app = phone_node.app::<AcuteMonApp>(idx);
            app.export(&mut counts);
            &app.records
        }
        TelemetryTool::SlowPing => {
            let app = phone_node.app::<BaselineApp>(idx);
            app.export(&mut counts);
            &app.records
        }
    };
    TelemetryRun {
        breakdowns: breakdowns(records, phone_node.ledger(), index),
        snapshot: counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance check for the telemetry layer: on a deterministic
    /// seeded run, the SDIO wake-latency and PSM beacon-buffering
    /// histograms must agree with the classic per-probe breakdowns.
    #[test]
    fn histogram_counts_match_breakdown_overheads() {
        let k = 20;
        let r = run(TelemetryTool::SlowPing, k, 11, 300);
        let snap = &r.snapshot;
        assert_eq!(r.breakdowns.len(), k as usize);

        // SDIO: at 1 s intervals over a 300 ms path the bus demotes both
        // between probes and mid-RTT, so each probe pays two promotions —
        // request out, response in — and every one is a histogram sample.
        let wake = snap.histogram("phone.sdio.wake_latency_ms").expect("hist");
        assert_eq!(wake.count(), snap.counter("phone.sdio.wakeups").unwrap());
        assert_eq!(wake.count(), 2 * u64::from(k));
        // The uplink promotion lands in ∆dk−v: every probe shows it.
        assert_eq!(r.probes_with_dk_v_above(5.0), k as usize);
        // Per-sample promotion cost matches Table 3's Broadcom numbers.
        assert!(
            wake.mean() > 5.0 && wake.mean() < 15.0,
            "wake mean {}",
            wake.mean()
        );

        // PSM: the STA dozes mid-RTT (300 ms > Tip), so the AP beacon-
        // buffers every response and the STA retrieves each with a
        // PS-Poll; the downlink promotion shows up in ∆dv−n.
        let buf = snap.histogram("phy.ap.ps_buffer_wait_ms").expect("hist");
        assert_eq!(buf.count(), snap.counter("phy.ap.ps_buffered").unwrap());
        assert_eq!(buf.count(), u64::from(k));
        assert_eq!(snap.counter("phy.sta.ps_polls"), Some(u64::from(k)));
        assert_eq!(r.probes_with_dv_n_above(5.0), k as usize);
        // Buffered-for durations are bounded by the beacon cycle plus the
        // PS-Poll handshake.
        assert!(
            buf.mean() > 0.0 && buf.mean() < 210.0,
            "buffer mean {}",
            buf.mean()
        );

        // The probe-level view agrees with the tool's own counters.
        assert_eq!(snap.counter("measure.ping.sent"), Some(u64::from(k)));
        assert_eq!(snap.counter("measure.ping.received"), Some(u64::from(k)));
    }

    /// The puncturing result, seen through telemetry: AcuteMon's
    /// keep-awake traffic prevents the dozes entirely.
    #[test]
    fn acutemon_keeps_layers_awake() {
        let r = run(TelemetryTool::AcuteMon, 50, 12, 300);
        let snap = &r.snapshot;
        assert!(snap.counter("acutemon.background_sent").unwrap() > 0);
        assert!(snap.counter("acutemon.warmup_sent").unwrap() > 0);
        // No response was ever beacon-buffered at the AP...
        assert_eq!(snap.counter("phy.ap.ps_buffered"), Some(0));
        assert_eq!(
            snap.histogram("phy.ap.ps_buffer_wait_ms")
                .expect("hist")
                .count(),
            0
        );
        // ...and after the warm-up, probes find the bus already awake.
        let awake = snap.counter("phone.sdio.ops_awake").unwrap();
        let asleep = snap.counter("phone.sdio.ops_asleep").unwrap();
        assert!(
            awake > 10 * asleep,
            "bus mostly awake: {awake} awake vs {asleep} asleep"
        );
    }

    /// Same seed, same snapshot — the snapshot is name-sorted and
    /// everything upstream of it is deterministic under the sim clock.
    #[test]
    fn snapshot_deterministic_across_runs() {
        let go = || {
            let r = run(TelemetryTool::SlowPing, 10, 7, 120);
            // sim.wall_ns measures host wall-clock time and is the one
            // metric that is allowed to differ run to run.
            obs::export::json_lines(&r.snapshot)
                .lines()
                .filter(|l| !l.contains("sim.wall_ns"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(go(), go());
    }
}
