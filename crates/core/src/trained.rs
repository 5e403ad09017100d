//! Self-configuring AcuteMon — §4.1's future work, end to end:
//!
//! > "In our prototype of AcuteMon, dpre and db were assigned with
//! > empirical values. Although they work well in our testbed evaluation,
//! > they could be inappropriate for some smartphone models, because both
//! > Tis and Tip are tunable. … A simple solution is training the program
//! > to obtain suitable values."
//!
//! [`TrainedAcuteMonApp`] runs in two phases: **training** (the
//! [`TimeoutInferApp`] gap sweep recovers the device's bus demotion
//! timeout `Tis` from user-level RTT steps) and **measuring** (a regular
//! [`AcuteMonApp`], the [`Machine`](crate::Machine) with `dpre`/`db`
//! derived from the estimate, started the moment training ends). The
//! sweep stays outside the machine: it is a different algorithm, and
//! `psm_explorer` runs it on its own. If the sweep finds no wake step (a
//! device with bus sleep disabled), a conservative fallback `db` is used.
//!
//! Limitation, documented in DESIGN.md: the PSM timeout `Tip` is not
//! observable from the app alone (it shows on the *response* path via the
//! AP), so the derived `db` guards `Tis`; the fallback cap keeps it below
//! typical `Tip` floors (~40 ms, Table 4).

use phone::{App, AppCtx};
use simcore::{SimDuration, SimTime};
use wire::Packet;

use crate::app::AcuteMonApp;
use crate::config::AcuteMonConfig;
use crate::infer::{estimate_tis, TimeoutEstimate, TimeoutInferApp, TimeoutInferConfig};

/// RTT step (ms) treated as a bus wake during estimation.
const WAKE_THRESHOLD_MS: f64 = 3.0;
/// `db` used when no wake step is found, and a third of the cap on the
/// derived value (stays below the smallest Table-4 `Tip`).
const FALLBACK_DB: SimDuration = SimDuration::from_millis(15);

/// Which phase the app is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainedPhase {
    /// Running the gap sweep.
    Training,
    /// Running the measurement with the derived timing.
    Measuring,
}

/// The phased app.
pub struct TrainedAcuteMonApp {
    base: AcuteMonConfig,
    infer: TimeoutInferApp,
    measure: Option<AcuteMonApp>,
    /// The training outcome (None while training, or if no step found).
    pub estimate: Option<TimeoutEstimate>,
    /// The `db` actually used for the measurement.
    pub derived_db: Option<SimDuration>,
    /// When training finished and measuring began.
    pub trained_at: Option<SimTime>,
}

impl TrainedAcuteMonApp {
    /// Train against `base`'s first target with the standard gap sweep,
    /// then measure with `base`, its `dpre`/`db` replaced by the training
    /// outcome.
    pub fn new(base: AcuteMonConfig) -> TrainedAcuteMonApp {
        let infer = TimeoutInferApp::new(TimeoutInferConfig::standard(base.targets[0]));
        TrainedAcuteMonApp {
            base,
            infer,
            measure: None,
            estimate: None,
            derived_db: None,
            trained_at: None,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> TrainedPhase {
        match self.measure {
            Some(_) => TrainedPhase::Measuring,
            None => TrainedPhase::Training,
        }
    }

    /// The measurement results (None until measuring starts).
    pub fn measurement(&self) -> Option<&AcuteMonApp> {
        self.measure.as_ref()
    }

    /// The app that owns the session right now.
    fn active(&mut self) -> &mut dyn App {
        match &mut self.measure {
            Some(m) => m,
            None => &mut self.infer,
        }
    }

    /// Once the sweep is done, derive the timing and start measuring.
    fn begin_measuring_when_trained(&mut self, ctx: &mut AppCtx<'_, '_>) {
        if self.measure.is_some() || !self.infer.done {
            return;
        }
        self.estimate = estimate_tis(&self.infer.samples, WAKE_THRESHOLD_MS);
        let (db, dpre) = match self.estimate {
            Some(est) => {
                // dpre must exceed the promotion delay, which the wake
                // step bounds from below: 2× the median wake (RTT above
                // the step minus the baseline), floored at the paper's
                // empirical 20 ms.
                let samples = self.infer.samples.iter();
                let above: Vec<f64> = samples
                    .filter(|s| s.gap_ms as f64 >= est.tis_ms)
                    .map(|s| s.rtt_ms - est.baseline_ms)
                    .collect();
                let wake_ms = am_stats::median(&above).unwrap_or(10.0).max(1.0);
                let db = SimDuration::from_ms_f64(est.recommended_db_ms);
                let dpre = SimDuration::from_ms_f64((2.0 * wake_ms).max(20.0));
                (db.min(FALLBACK_DB * 3), dpre)
            }
            None => (FALLBACK_DB, SimDuration::from_millis(20)),
        };
        let mut app = AcuteMonApp::new(self.base.clone().with_timing(dpre, db));
        self.derived_db = Some(db);
        self.trained_at = Some(ctx.now());
        app.on_start(ctx);
        self.measure = Some(app);
    }
}

impl App for TrainedAcuteMonApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_, '_>) {
        self.infer.on_start(ctx);
    }

    fn wants(&self, packet: &Packet) -> bool {
        match &self.measure {
            Some(m) => m.wants(packet),
            None => self.infer.wants(packet),
        }
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<'_, '_>, packet: Packet) {
        self.active().on_packet(ctx, packet);
        self.begin_measuring_when_trained(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_, '_>, tag: u32) {
        self.active().on_timer(ctx, tag);
        self.begin_measuring_when_trained(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::RecordSet;
    use netem::{LinkNode, LinkParams, ServerConfig, ServerNode};
    use phone::{PhoneNode, PhoneProfile, RuntimeKind};
    use simcore::Sim;
    use wire::Msg;

    fn run(profile: PhoneProfile, sleep: bool, seed: u64) -> (Sim<Msg>, simcore::NodeId, usize) {
        let mut sim = Sim::new(seed);
        let server = sim.add_node(Box::new(ServerNode::new(
            50,
            ServerConfig::standard(phone::wired_ip(1)),
        )));
        let link = sim.add_node(Box::new(LinkNode::new(LinkParams::delay_ms(15))));
        let mut ph = PhoneNode::new(1, profile, phone::wlan_ip(100), link);
        ph.core_mut().bus.set_sleep_enabled(sleep);
        let app = ph.install_app(
            Box::new(TrainedAcuteMonApp::new(AcuteMonConfig::new(
                phone::wired_ip(1),
                20,
            ))),
            RuntimeKind::Native,
        );
        let phone_id = sim.add_node(Box::new(ph));
        sim.node_mut::<LinkNode>(link).connect(phone_id, server);
        sim.run_until(SimTime::from_secs(120));
        (sim, phone_id, app)
    }

    #[test]
    fn trains_then_measures_cleanly_on_nexus5() {
        let (sim, phone_id, app) = run(phone::nexus5(), true, 61);
        let t = sim
            .node::<PhoneNode>(phone_id)
            .app::<TrainedAcuteMonApp>(app);
        assert_eq!(t.phase(), TrainedPhase::Measuring);
        let est = t.estimate.expect("found the wake step");
        assert!((40.0..=60.0).contains(&est.tis_ms), "tis {}", est.tis_ms);
        let db = t.derived_db.unwrap();
        assert!(db < SimDuration::from_millis(50), "db {db}");
        let m = t.measurement().expect("measurement ran");
        assert!((m.records.completion() - 1.0).abs() < 1e-12);
        // Clean probes: the derived db keeps the bus awake.
        let du = m.records.du();
        let med = am_stats::median(&du).unwrap();
        assert!(med < 30.0 + 5.0, "median {med}");
    }

    #[test]
    fn falls_back_when_no_step_exists() {
        // Bus sleep disabled: the sweep finds no step; the fallback db is
        // used and the measurement still completes.
        let (sim, phone_id, app) = run(phone::nexus5(), false, 62);
        let t = sim
            .node::<PhoneNode>(phone_id)
            .app::<TrainedAcuteMonApp>(app);
        assert_eq!(t.phase(), TrainedPhase::Measuring);
        assert!(t.estimate.is_none());
        assert_eq!(t.derived_db.unwrap(), SimDuration::from_millis(15));
        let m = t.measurement().unwrap();
        assert!((m.records.completion() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn works_on_a_qualcomm_phone_too() {
        let (sim, phone_id, app) = run(phone::nexus4(), true, 63);
        let t = sim
            .node::<PhoneNode>(phone_id)
            .app::<TrainedAcuteMonApp>(app);
        // Qualcomm wake (~5 ms) is above the 3 ms threshold: detected.
        let est = t.estimate.expect("wake step found");
        assert!((40.0..=60.0).contains(&est.tis_ms), "tis {}", est.tis_ms);
        let m = t.measurement().unwrap();
        assert!((m.records.completion() - 1.0).abs() < 1e-12);
    }
}
