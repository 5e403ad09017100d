//! Declarative campaign specs.
//!
//! A [`CampaignSpec`] describes a *population*: `devices` simulated
//! phones drawn from weighted [`DeviceClass`] strata. Everything about
//! device `i` — its stratum, its RNG seed, its fault-plan seed — is a
//! pure function of `(campaign_seed, i)`, so a campaign shards across
//! any number of workers and still merges to byte-identical results.

use netem::FaultPlan;
use phone::PhoneProfile;
use simcore::{splitmix64, SimDuration};

/// Radio access technology of a device class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Radio {
    /// 802.11 PSM testbed (the paper's Fig. 2).
    Wifi,
    /// LTE RRC bearer (connected → short DRX → long DRX → idle).
    Lte,
    /// UMTS RRC bearer (DCH → FACH → IDLE).
    Umts,
}

/// The measurement tool a class runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// AcuteMon: warm-up + background traffic puncture the sleep delays.
    AcuteMon,
    /// A legacy sparse `ping` (1 s cadence) — the inflated baseline.
    SparsePing,
}

/// A per-class path-RTT *distribution*. Real measurement populations
/// (MopEye-style crowdsourcing) see a distribution of path RTTs per
/// device class, not one fixed value; each device draws its own path
/// RTT deterministically from `(campaign_seed, device_index)` via
/// [`CampaignSpec::path_rtt_of`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RttDist {
    /// Every device in the class sees the same path RTT (ms).
    Constant(u64),
    /// Uniform over `lo_ms..=hi_ms` (inclusive), in whole milliseconds.
    Uniform {
        /// Smallest path RTT, ms.
        lo_ms: u64,
        /// Largest path RTT, ms.
        hi_ms: u64,
    },
    /// Log-normal around a median: `median_ms · exp(sigma · Z)` with
    /// `Z ~ N(0,1)`, rounded to whole ms and clamped to
    /// `[1, 10_000]` ms — the long-tailed shape crowdsourced per-app RTT
    /// populations actually show.
    LogNormal {
        /// Median path RTT, ms (the `exp(μ)` of the underlying normal).
        median_ms: f64,
        /// Log-scale spread σ (0.5 ≈ a 2.7× p95/p50 ratio).
        sigma: f64,
    },
}

impl RttDist {
    /// Draw one path RTT (whole ms, in `[1, 10_000]`) from `draw`, a
    /// 64-bit value that must already be device-unique (the spec derives
    /// it from `(campaign_seed, device_index)` with a dedicated stream
    /// tag, so RTT draws never correlate with the simulation RNG).
    pub fn sample_ms(&self, draw: u64) -> u64 {
        const CLAMP_MAX: u64 = 10_000;
        match *self {
            RttDist::Constant(ms) => ms.clamp(1, CLAMP_MAX),
            RttDist::Uniform { lo_ms, hi_ms } => {
                let (lo, hi) = (lo_ms.min(hi_ms), lo_ms.max(hi_ms));
                (lo + draw % (hi - lo + 1)).clamp(1, CLAMP_MAX)
            }
            RttDist::LogNormal { median_ms, sigma } => {
                // Box–Muller over two decorrelated uniform draws.
                let u1 = to_unit_open(splitmix64(draw ^ 0x5EED_0001));
                let u2 = to_unit_open(splitmix64(draw ^ 0x5EED_0002));
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let ms = median_ms * (sigma * z).exp();
                (ms.round() as u64).clamp(1, CLAMP_MAX)
            }
        }
    }
}

/// Map a u64 to the open unit interval (0, 1) — never exactly 0, so
/// `ln(u)` in Box–Muller stays finite.
fn to_unit_open(x: u64) -> f64 {
    (((x >> 11) as f64) + 0.5) / (1u64 << 53) as f64
}

/// A diurnal cross-traffic schedule: devices whose (simulated,
/// per-device) local time-of-day falls inside the busy window run the
/// paper's §4.3 iPerf-style cross traffic for their whole session.
/// Device time-of-day is a deterministic uniform draw over `[0, 24)`
/// hours via [`CampaignSpec::time_of_day_of`] — a population snapshot of
/// devices measuring at different wall-clock hours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalSchedule {
    /// Busy window start, hours in `[0, 24)`.
    pub busy_start_hour: f64,
    /// Busy window end, hours in `[0, 24)`; a start after the end wraps
    /// around midnight (e.g. 22→2).
    pub busy_end_hour: f64,
}

impl DiurnalSchedule {
    /// The evening peak (19:00–23:00) most residential WiFi sees.
    pub fn evening_peak() -> DiurnalSchedule {
        DiurnalSchedule {
            busy_start_hour: 19.0,
            busy_end_hour: 23.0,
        }
    }

    /// Whether `tod_hours` (in `[0, 24)`) falls inside the busy window.
    pub fn is_busy(&self, tod_hours: f64) -> bool {
        let (s, e) = (self.busy_start_hour, self.busy_end_hour);
        if s <= e {
            (s..e).contains(&tod_hours)
        } else {
            tod_hours >= s || tod_hours < e
        }
    }
}

/// A §4.2.2 calibration sweep at population scale: each device in the
/// stratum deterministically picks one `(dpre, db)` grid point, so a
/// single campaign covers the whole sensitivity grid with
/// population-sized samples per point.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSweep {
    /// Warm-up lead times `dpre` to sweep, ms. Must respect the paper's
    /// validity window `Tprom < dpre < min(Tis, Tip)`.
    pub dpre_ms: Vec<f64>,
    /// Background intervals `db` to sweep, ms (`db < min(Tis, Tip)`).
    pub db_ms: Vec<f64>,
}

impl CalibrationSweep {
    /// The default §4.2.2 grid: `dpre ∈ {10, 20, 40}` × `db ∈ {10, 20,
    /// 40}` ms — all inside the validity window of every Table 1 phone.
    pub fn paper_grid() -> CalibrationSweep {
        CalibrationSweep {
            dpre_ms: vec![10.0, 20.0, 40.0],
            db_ms: vec![10.0, 20.0, 40.0],
        }
    }

    /// The `(dpre, db)` grid point device draw `draw` lands on.
    pub fn pick(&self, draw: u64) -> (f64, f64) {
        let n = (self.dpre_ms.len() * self.db_ms.len()).max(1) as u64;
        let cell = (draw % n) as usize;
        (
            self.dpre_ms[cell / self.db_ms.len().max(1)],
            self.db_ms[cell % self.db_ms.len().max(1)],
        )
    }
}

/// One population stratum: a phone model plus the knobs the paper shows
/// matter (SDIO `idletime`, PSM `Tip`, listen interval `L`, beacon
/// interval), the tool it runs, and optional fault / cellular profiles.
#[derive(Debug, Clone)]
pub struct DeviceClass {
    /// Stratum name (report key).
    pub name: &'static str,
    /// Sampling weight (relative share of the population).
    pub weight: u32,
    /// Base phone model.
    pub profile: PhoneProfile,
    /// WiFi PSM or an RRC bearer.
    pub radio: Radio,
    /// Emulated path RTT (WiFi) or core RTT (cellular): a distribution
    /// sampled once per device.
    pub path_rtt: RttDist,
    /// Override the SDIO `idletime` (watchdog ticks before bus sleep).
    pub sdio_idletime: Option<u32>,
    /// Override the adaptive-PSM timeout `Tip` with a fixed value, ms.
    pub tip_ms: Option<f64>,
    /// Override the listen interval `L`.
    pub listen_interval: Option<u32>,
    /// Override the AP beacon interval, ms (WiFi only).
    pub beacon_interval_ms: Option<f64>,
    /// The measurement tool this stratum runs.
    pub tool: Tool,
    /// Fault plan for the path (WiFi medium / cellular bearer). The
    /// plan's seed is re-derived per device.
    pub faults: Option<FaultPlan>,
    /// Diurnal cross-traffic schedule (WiFi only): devices whose drawn
    /// time-of-day is inside the busy window compete with §4.3 cross
    /// traffic.
    pub diurnal: Option<DiurnalSchedule>,
    /// §4.2.2 calibration sweep: per-device `(dpre, db)` grid points
    /// (AcuteMon strata only; ignored for sparse ping).
    pub calibration: Option<CalibrationSweep>,
}

impl DeviceClass {
    /// A WiFi stratum running AcuteMon on `profile` over `rtt_ms`.
    pub fn wifi(name: &'static str, weight: u32, profile: PhoneProfile, rtt_ms: u64) -> Self {
        DeviceClass {
            name,
            weight,
            profile,
            radio: Radio::Wifi,
            path_rtt: RttDist::Constant(rtt_ms),
            sdio_idletime: None,
            tip_ms: None,
            listen_interval: None,
            beacon_interval_ms: None,
            tool: Tool::AcuteMon,
            faults: None,
            diurnal: None,
            calibration: None,
        }
    }

    /// Builder: switch to the sparse-ping baseline tool.
    pub fn sparse_ping(mut self) -> Self {
        self.tool = Tool::SparsePing;
        self
    }

    /// Builder: set the radio access technology.
    pub fn with_radio(mut self, radio: Radio) -> Self {
        self.radio = radio;
        self
    }

    /// Builder: override the SDIO `idletime`.
    pub fn with_sdio_idletime(mut self, ticks: u32) -> Self {
        self.sdio_idletime = Some(ticks);
        self
    }

    /// Builder: pin the PSM timeout `Tip` to a fixed value.
    pub fn with_tip_ms(mut self, tip_ms: f64) -> Self {
        self.tip_ms = Some(tip_ms);
        self
    }

    /// Builder: override the listen interval `L`.
    pub fn with_listen_interval(mut self, l: u32) -> Self {
        self.listen_interval = Some(l);
        self
    }

    /// Builder: override the beacon interval (ms).
    pub fn with_beacon_interval_ms(mut self, ms: f64) -> Self {
        self.beacon_interval_ms = Some(ms);
        self
    }

    /// Builder: inject faults on the path (seed re-derived per device).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builder: draw each device's path RTT from `dist` instead of a
    /// fixed value.
    pub fn with_rtt(mut self, dist: RttDist) -> Self {
        self.path_rtt = dist;
        self
    }

    /// Builder: run §4.3 cross traffic on devices whose drawn
    /// time-of-day falls inside `schedule`'s busy window.
    pub fn with_diurnal(mut self, schedule: DiurnalSchedule) -> Self {
        self.diurnal = Some(schedule);
        self
    }

    /// Builder: sweep `(dpre, db)` across the stratum per `sweep`.
    pub fn with_calibration(mut self, sweep: CalibrationSweep) -> Self {
        self.calibration = Some(sweep);
        self
    }
}

/// A full campaign: N devices drawn from weighted strata.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign seed; every device seed derives from it.
    pub seed: u64,
    /// Population size.
    pub devices: u64,
    /// Probes per device (`K`).
    pub probes_per_device: u32,
    /// The latest a device's session may run. Each device's simulation
    /// stops when its measurement tool finishes, so the horizon only
    /// cuts short a session that has not finished by then (and ends
    /// busy-window cross traffic).
    pub horizon: SimDuration,
    /// The strata (must be non-empty, total weight > 0).
    pub classes: Vec<DeviceClass>,
}

impl CampaignSpec {
    /// A campaign of `devices` devices over `classes`.
    pub fn new(seed: u64, devices: u64, classes: Vec<DeviceClass>) -> CampaignSpec {
        assert!(!classes.is_empty(), "campaign needs at least one class");
        assert!(
            classes.iter().map(|c| u64::from(c.weight)).sum::<u64>() > 0,
            "campaign needs a positive total weight"
        );
        CampaignSpec {
            seed,
            devices,
            probes_per_device: 6,
            horizon: SimDuration::from_secs(12),
            classes,
        }
    }

    /// Builder: probes per device.
    pub fn with_probes(mut self, k: u32) -> Self {
        self.probes_per_device = k.max(1);
        self
    }

    /// Builder: the latest a device's session may run.
    pub fn with_horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    /// The heterogeneous reference population used by `repro fleet`:
    /// AcuteMon and sparse-ping WiFi strata across phone models and PSM
    /// knobs, a lossy-WiFi stratum, and LTE/UMTS cellular strata.
    pub fn heterogeneous(seed: u64, devices: u64) -> CampaignSpec {
        let classes = vec![
            DeviceClass::wifi("n5-acutemon-50ms", 4, phone::nexus5(), 50),
            DeviceClass::wifi("n5-ping-50ms", 2, phone::nexus5(), 50).sparse_ping(),
            DeviceClass::wifi("n4-fast-doze", 2, phone::nexus4(), 50)
                .sparse_ping()
                .with_sdio_idletime(1)
                .with_tip_ms(120.0)
                .with_listen_interval(3),
            DeviceClass::wifi("n5-slow-beacons", 1, phone::nexus5(), 50)
                .sparse_ping()
                .with_beacon_interval_ms(204.8),
            DeviceClass::wifi("n5-lossy-wifi", 1, phone::nexus5(), 50)
                .with_faults(FaultPlan::gilbert_elliott(0.08, 3.0)),
            DeviceClass::wifi("lte-acutemon-40ms", 1, phone::nexus5(), 40).with_radio(Radio::Lte),
            DeviceClass::wifi("umts-ping-40ms", 1, phone::nexus5(), 40)
                .sparse_ping()
                .with_radio(Radio::Umts),
            // MopEye-style populations: per-class RTT *distributions*.
            DeviceClass::wifi("n5-lognormal-rtt", 2, phone::nexus5(), 60).with_rtt(
                RttDist::LogNormal {
                    median_ms: 60.0,
                    sigma: 0.5,
                },
            ),
            DeviceClass::wifi("n4-uniform-rtt", 1, phone::nexus4(), 70)
                .sparse_ping()
                .with_rtt(RttDist::Uniform {
                    lo_ms: 20,
                    hi_ms: 120,
                }),
            // Evening-peak homes: §4.3 cross traffic for devices that
            // measure during the busy window.
            DeviceClass::wifi("n5-evening-cross", 1, phone::nexus5(), 50)
                .with_diurnal(DiurnalSchedule::evening_peak()),
            // §4.2.2 at population scale: the (dpre, db) sensitivity grid.
            DeviceClass::wifi("n5-calib-dpre-db", 1, phone::nexus5(), 50)
                .with_calibration(CalibrationSweep::paper_grid()),
        ];
        CampaignSpec::new(seed, devices, classes)
    }

    /// Total stratum weight.
    pub fn total_weight(&self) -> u64 {
        self.classes.iter().map(|c| u64::from(c.weight)).sum()
    }

    /// The stratum of device `index` — a pure function of
    /// `(seed, index)`, independent of worker count or completion order.
    pub fn class_of(&self, index: u64) -> usize {
        let total = self.total_weight();
        let mut draw = splitmix64(self.seed ^ splitmix64(index ^ 0xC1A5_5000)) % total;
        for (i, c) in self.classes.iter().enumerate() {
            let w = u64::from(c.weight);
            if draw < w {
                return i;
            }
            draw -= w;
        }
        self.classes.len() - 1
    }

    /// The simulation seed of device `index` (pure in `(seed, index)`).
    pub fn device_seed(&self, index: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(index))
    }

    /// The fault-plan seed of device `index`, decorrelated from the
    /// simulation seed.
    pub fn fault_seed(&self, index: u64) -> u64 {
        splitmix64(self.device_seed(index) ^ 0xFA17_5EED)
    }

    /// The path RTT (ms) of device `index`: one deterministic draw from
    /// its stratum's [`RttDist`], decorrelated from the simulation and
    /// fault seeds by a dedicated stream tag.
    pub fn path_rtt_of(&self, index: u64) -> u64 {
        let class = &self.classes[self.class_of(index)];
        class
            .path_rtt
            .sample_ms(splitmix64(self.device_seed(index) ^ 0x0077_D157))
    }

    /// The simulated local time-of-day of device `index`, hours in
    /// `[0, 24)` — a uniform deterministic draw, used against
    /// [`DiurnalSchedule`] busy windows.
    pub fn time_of_day_of(&self, index: u64) -> f64 {
        let draw = splitmix64(self.device_seed(index) ^ 0x70D0_0DA1);
        24.0 * ((draw >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// The `(dpre, db)` calibration grid point of device `index` (ms),
    /// when its stratum carries a [`CalibrationSweep`].
    pub fn calibration_of(&self, index: u64) -> Option<(f64, f64)> {
        let class = &self.classes[self.class_of(index)];
        let sweep = class.calibration.as_ref()?;
        Some(sweep.pick(splitmix64(self.device_seed(index) ^ 0xCA11_B007)))
    }

    /// Whether device `index` runs §4.3 cross traffic: its stratum has a
    /// diurnal schedule and its drawn time-of-day is in the busy window.
    pub fn cross_traffic_of(&self, index: u64) -> bool {
        let class = &self.classes[self.class_of(index)];
        class
            .diurnal
            .map(|d| d.is_busy(self.time_of_day_of(index)))
            .unwrap_or(false)
    }

    /// A fingerprint of the whole spec (seed, population size, probes,
    /// horizon, and every stratum knob), FNV-1a over the canonical debug
    /// rendering. Campaign checkpoints and partial reports embed it so a
    /// resume or merge against a *different* spec is rejected instead of
    /// silently producing garbage. The rendering streams into the hash
    /// as it is formatted, never held as one string.
    pub fn fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        /// FNV-1a over every byte written to it.
        struct Fnv1a(u64);
        impl std::fmt::Write for Fnv1a {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
                for b in s.bytes() {
                    self.0 ^= u64::from(b);
                    self.0 = self.0.wrapping_mul(FNV_PRIME);
                }
                Ok(())
            }
        }
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        write!(h, "fleet-spec-v1 {self:?}").expect("hashing never fails");
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_pure_and_distinct() {
        let spec = CampaignSpec::heterogeneous(2016, 1000);
        assert_eq!(spec.device_seed(17), spec.device_seed(17));
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(spec.device_seed(i)), "collision at {i}");
        }
    }

    #[test]
    fn strata_follow_weights() {
        let spec = CampaignSpec::heterogeneous(7, 24_000);
        let mut counts = vec![0u64; spec.classes.len()];
        for i in 0..spec.devices {
            counts[spec.class_of(i)] += 1;
        }
        let total = spec.total_weight() as f64;
        for (c, &n) in spec.classes.iter().zip(&counts) {
            let expected = spec.devices as f64 * f64::from(c.weight) / total;
            let err = (n as f64 - expected).abs() / expected;
            assert!(err < 0.1, "{}: {n} vs {expected}", c.name);
        }
    }

    #[test]
    fn fingerprint_is_pinned() {
        // Checkpoints, partials and collector journals carry this value:
        // changing how it is computed must not change it.
        assert_eq!(
            CampaignSpec::heterogeneous(2016, 200).fingerprint(),
            0x2ef4_a2ab_81b8_d297
        );
    }

    #[test]
    fn class_of_is_independent_of_device_count() {
        // Sharding must not change stratum assignment: device 5 is in
        // the same class whether the campaign has 10 or 10k devices.
        let small = CampaignSpec::heterogeneous(2016, 10);
        let large = CampaignSpec::heterogeneous(2016, 10_000);
        for i in 0..10 {
            assert_eq!(small.class_of(i), large.class_of(i));
        }
    }
}
