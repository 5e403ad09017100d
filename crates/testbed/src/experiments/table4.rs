//! **Table 4**: PSM timeout `Tip` and listen intervals per phone.
//!
//! `Tip` is measured the way the paper's sniffers allow: for every
//! null-data PM=1 frame the phone airs, take the time since the last data
//! activity involving the phone — that gap is the adaptive-PSM timeout.
//!
//! The *actual* listen interval is estimated from the phone's beacon
//! behaviour while dozing: with listen interval `L`, a dozing station
//! attends every `(L+1)`-th beacon, so over a long doze
//! `L ≈ beacons_on_air × (1 − miss) / beacons_attended − 1`.

use am_stats::{median, Table};
use measure::{Baseline, BaselineApp};
use obs::ToJson;
use phone::PhoneProfile;
use simcore::{SimDuration, SimTime};
use wire::FrameKind;

use crate::{addr, Testbed, TestbedConfig};

/// One phone's Table 4 row.
#[derive(Debug, Clone, ToJson)]
pub struct Table4Row {
    /// Phone model.
    pub phone: String,
    /// Median measured `Tip` (ms).
    pub tip_ms: f64,
    /// Min/max of the `Tip` samples (ms).
    pub tip_range: (f64, f64),
    /// Listen interval announced at association.
    pub listen_assoc: u32,
    /// Estimated actual listen interval.
    pub listen_actual: u32,
    /// Number of `Tip` samples collected.
    pub samples: usize,
}

/// The Table 4 result.
#[derive(Debug, ToJson)]
pub struct Table4 {
    /// One row per phone, paper order.
    pub rows: Vec<Table4Row>,
}

/// Measure one phone. `reps` ping exchanges; each is followed by a doze
/// announcement whose delay since the last activity samples `Tip`.
pub fn measure_phone(profile: PhoneProfile, reps: u32, seed: u64) -> Table4Row {
    let phone_name = profile.name.to_string();
    let listen_assoc = profile.listen_interval_assoc;
    let tip_max_ms = profile.psm_timeout.max_ms;
    let mut tb = Testbed::build(TestbedConfig::new(seed, profile, 20));
    // Sparse pings: the gap must exceed the largest Tip so the phone
    // demotes between probes.
    let gap_ms = (tip_max_ms as u64 + 200).max(700);
    tb.install_app(
        Box::new(BaselineApp::new(
            Baseline::Ping,
            addr::SERVER,
            reps,
            SimDuration::from_millis(gap_ms),
        )),
        phone::RuntimeKind::Native,
    );
    let probe_horizon =
        SimDuration::from_millis(gap_ms) * u64::from(reps) + SimDuration::from_secs(2);
    // Extra idle tail: the phone dozes through it; used for the listen
    // interval estimate.
    let idle_tail = SimDuration::from_secs(20);
    tb.run_until(SimTime::ZERO + probe_horizon + idle_tail);

    // Tip samples from the capture.
    let index = tb.capture_index();
    let phone_mac = wire::Mac::local(1);
    let mut last_data: Option<SimTime> = None;
    let mut tip_samples: Vec<f64> = Vec::new();
    for c in index.captures() {
        match &c.frame.kind {
            FrameKind::Data { .. } if c.frame.src == phone_mac || c.frame.dst == phone_mac => {
                last_data = Some(c.at);
            }
            FrameKind::NullData { pm: true } if c.frame.src == phone_mac => {
                if let Some(t) = last_data {
                    tip_samples.push(c.at.saturating_since(t).as_ms_f64());
                }
            }
            _ => {}
        }
    }

    // Listen interval from the doze-phase beacon statistics: the station
    // attends (hears or narrowly misses) only every (L+1)-th beacon while
    // dozing, so L + 1 ≈ beacons-elapsed-while-dozing / beacons-attended.
    let sta = tb.sta_node();
    let attended = sta.stats.beacons_heard + sta.stats.beacons_missed;
    let doze_ns = {
        let run_ns = tb.sim.now().as_nanos();
        run_ns.saturating_sub(sta.stats.cam_ns)
    };
    let beacon_ns = phy80211::default_beacon_interval().as_nanos();
    let listen_actual = if attended > 0 {
        let beacons_while_dozing = doze_ns as f64 / beacon_ns as f64;
        ((beacons_while_dozing / attended as f64).round() as i64 - 1).max(0) as u32
    } else {
        u32::MAX // never dozed in the horizon
    };

    let med = median(&tip_samples).unwrap_or(0.0);
    let lo = tip_samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = tip_samples
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    Table4Row {
        phone: phone_name,
        tip_ms: med,
        tip_range: if tip_samples.is_empty() {
            (0.0, 0.0)
        } else {
            (lo, hi)
        },
        listen_assoc,
        listen_actual,
        samples: tip_samples.len(),
    }
}

/// Run Table 4 for all five phones.
pub fn run(reps: u32, seed: u64) -> Table4 {
    let phones = [
        phone::nexus4(),
        phone::nexus5(),
        phone::samsung_grand(),
        phone::htc_one(),
        phone::xperia_j(),
    ];
    let rows = phones
        .into_iter()
        .enumerate()
        .map(|(i, p)| measure_phone(p, reps, seed ^ (i as u64) << 3))
        .collect();
    Table4 { rows }
}

impl Table4 {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Phone",
            "Tip (median)",
            "Tip range",
            "L (associated)",
            "L (actual)",
        ]);
        for r in &self.rows {
            t.add_row(vec![
                r.phone.clone(),
                format!("~{:.0}ms", r.tip_ms),
                format!("{:.0}..{:.0}ms", r.tip_range.0, r.tip_range.1),
                r.listen_assoc.to_string(),
                if r.listen_actual == u32::MAX {
                    "-".to_string()
                } else {
                    r.listen_actual.to_string()
                },
            ]);
        }
        format!(
            "Table 4: PSM timeout values (Tip) and listen intervals\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nexus4_tip_near_40() {
        let row = measure_phone(phone::nexus4(), 8, 9);
        assert!(row.samples >= 6, "samples={}", row.samples);
        assert!(
            (25.0..=60.0).contains(&row.tip_ms),
            "tip={} (expect ~40)",
            row.tip_ms
        );
        assert_eq!(row.listen_assoc, 1);
        assert_eq!(row.listen_actual, 0);
    }

    #[test]
    fn nexus5_tip_near_205() {
        let row = measure_phone(phone::nexus5(), 8, 10);
        assert!(
            (170.0..=245.0).contains(&row.tip_ms),
            "tip={} (expect ~205)",
            row.tip_ms
        );
        assert_eq!(row.listen_assoc, 10);
    }
}
