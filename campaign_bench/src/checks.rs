//! Output checks on a campaign report. Each returns the failures it
//! found, so a run can count them as failed operations.

use fleet::{CampaignReport, CampaignSpec, Radio, Tool};

/// Least population-wide probe completion a campaign may report.
pub const MIN_COMPLETION: f64 = 0.995;
/// The paper's headline (DESIGN.md §1): AcuteMon's median overhead
/// stays under 3 ms ...
pub const ACUTEMON_MAX_OVERHEAD_P50_MS: f64 = 3.0;
/// ... while a sparse ping on the Nexus 5, whose SDIO bus sleeps, is
/// inflated past 15 ms. The Nexus 4's wcnss driver has no SDIO bus to
/// wake, so its sparse-ping strata (about 7.5 ms) only have to exceed
/// AcuteMon's bound.
pub const SPARSE_PING_MIN_OVERHEAD_P50_MS: f64 = 15.0;

/// Check `report` against the campaign `spec` it came from: the device
/// count, each stratum's count against `class_of`, population probe
/// completion, and the paper's headline on every WiFi stratum.
pub fn check_report(spec: &CampaignSpec, report: &CampaignReport) -> Vec<String> {
    let mut failures = Vec::new();
    if report.devices != spec.devices {
        failures.push(format!(
            "report has {} devices, the campaign {}",
            report.devices, spec.devices
        ));
    }
    let mut expected = vec![0u64; spec.classes.len()];
    for i in 0..spec.devices {
        expected[spec.class_of(i)] += 1;
    }
    if report.strata.len() != spec.classes.len() {
        failures.push(format!(
            "report has {} strata, the campaign {}",
            report.strata.len(),
            spec.classes.len()
        ));
    }
    for ((s, class), want) in report.strata.iter().zip(&spec.classes).zip(&expected) {
        if s.name != class.name || s.devices != *want {
            failures.push(format!(
                "stratum {} has {} devices, class_of gives {} for {}",
                s.name, s.devices, want, class.name
            ));
        }
    }
    let completion = report.du_all.completion();
    if completion < MIN_COMPLETION {
        failures.push(format!(
            "population probe completion {:.4} < {MIN_COMPLETION}",
            completion
        ));
    }
    let sdio_phone = phone::nexus5().name;
    for (s, class) in report.strata.iter().zip(&spec.classes) {
        if class.radio != Radio::Wifi || s.devices == 0 {
            continue;
        }
        let p50 = s.overhead.median();
        let holds = match (class.tool, p50) {
            (Tool::AcuteMon, Some(v)) => v < ACUTEMON_MAX_OVERHEAD_P50_MS,
            (Tool::SparsePing, Some(v)) if class.profile.name == sdio_phone => {
                v > SPARSE_PING_MIN_OVERHEAD_P50_MS
            }
            (Tool::SparsePing, Some(v)) => v > ACUTEMON_MAX_OVERHEAD_P50_MS,
            (_, None) => false,
        };
        if !holds {
            failures.push(format!(
                "headline fails on {} ({:?}): overhead p50 {p50:?} ms",
                s.name, class.tool
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Workload;
    use crate::{DEFAULT_SEED, HELD_OUT_SEED};

    fn tiny(workload: Workload, seed: u64) -> (CampaignSpec, CampaignReport) {
        let mut spec = workload.spec(seed);
        spec.devices = 160;
        let (report, _) = fleet::run_campaign(&spec, 2);
        (spec, report)
    }

    #[test]
    fn tiny_campaigns_pass_every_check_on_the_default_and_held_out_seeds() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for w in [Workload::FleetMixed, Workload::FleetShort] {
                let (spec, report) = tiny(w, seed);
                assert_eq!(
                    check_report(&spec, &report),
                    Vec::<String>::new(),
                    "{w:?} {seed}"
                );
            }
        }
    }

    #[test]
    fn tampered_reports_fail() {
        let (spec, report) = tiny(Workload::FleetShort, DEFAULT_SEED);

        let mut r = report.clone();
        r.strata[0].devices += 1;
        r.strata[1].devices -= 1;
        let f = check_report(&spec, &r);
        assert_eq!(f.len(), 2, "{f:?}");

        let mut r = report.clone();
        r.devices += 1;
        assert_eq!(check_report(&spec, &r).len(), 1);

        let mut r = report.clone();
        for _ in 0..10 {
            r.du_all.observe_censored();
        }
        assert!(check_report(&spec, &r)[0].contains("completion"));

        // AcuteMon's overhead sketch on a sparse-ping stratum and the
        // reverse: the headline fails on both.
        let mut r = report.clone();
        let acutemon = r.strata[0].overhead.clone();
        r.strata[0].overhead = r.strata[1].overhead.clone();
        r.strata[1].overhead = acutemon;
        let f = check_report(&spec, &r);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|m| m.contains("headline")));
    }
}
