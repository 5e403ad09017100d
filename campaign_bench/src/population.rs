//! The three workloads and the populations they simulate.
//!
//! Populations are written out here rather than taken from
//! `CampaignSpec::heterogeneous`, so an edit to the library's reference
//! population cannot silently change what the benchmark measures. The
//! seed is the only input that varies between runs.

use fleet::{CalibrationSweep, CampaignSpec, DeviceClass, DiurnalSchedule, Radio, RttDist};
use netem::FaultPlan;
use simcore::SimDuration;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 11-stratum realistic mix, 6 probes over 12 s, at 2 workers.
    FleetMixed,
    /// Short sessions without cross traffic or faults, at 1 worker.
    FleetShort,
    /// A collector daemon fed cumulative shard states while `/snapshot`
    /// is read at a fixed rate.
    IngestLive,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FleetMixed,
        Workload::FleetShort,
        Workload::IngestLive,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetMixed => "fleet-mixed",
            Workload::FleetShort => "fleet-short",
            Workload::IngestLive => "ingest-live",
        }
    }

    /// The population this workload simulates: the timed campaign for
    /// the fleet workloads, the pre-simulated shard campaign whose
    /// states are pushed for ingest-live.
    pub fn spec(self, seed: u64) -> CampaignSpec {
        match self {
            Workload::FleetMixed => mixed(seed, MIXED_DEVICES),
            Workload::FleetShort => short(seed, SHORT_DEVICES),
            Workload::IngestLive => mixed(seed, INGEST_DEVICES),
        }
    }

    /// Engine worker threads.
    pub fn workers(self) -> usize {
        match self {
            Workload::FleetMixed | Workload::IngestLive => 2,
            Workload::FleetShort => 1,
        }
    }
}

/// Devices per fleet-mixed campaign.
pub const MIXED_DEVICES: u64 = 12_000;
/// Devices per fleet-short campaign.
pub const SHORT_DEVICES: u64 = 12_000;
/// Devices of the campaign whose shard states ingest-live pushes.
pub const INGEST_DEVICES: u64 = 3_000;
/// Shards of the ingest-live campaign.
pub const INGEST_SHARDS: u64 = 4;
/// Devices between a shard's cumulative pushes: the default
/// `--push-every` of `repro fleet --push-to`.
pub const PUSH_EVERY: u64 = 64;

/// The realistic mix: AcuteMon and sparse-ping WiFi strata across phone
/// models and PSM knobs, lossy WiFi, LTE and UMTS, per-class RTT
/// distributions, evening-peak cross traffic and the §4.2.2
/// calibration grid. 6 probes over a 12 s horizon.
pub fn mixed(seed: u64, devices: u64) -> CampaignSpec {
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
        DeviceClass::wifi("n5-evening-cross", 1, phone::nexus5(), 50)
            .with_diurnal(DiurnalSchedule::evening_peak()),
        DeviceClass::wifi("n5-calib-dpre-db", 1, phone::nexus5(), 50)
            .with_calibration(CalibrationSweep::paper_grid()),
    ];
    CampaignSpec::new(seed, devices, classes)
}

/// MopEye-style short sessions: a few samples from very many phones.
/// AcuteMon, sparse ping, fast doze, LTE and UMTS; no cross traffic and
/// no faults; 2 probes over a 3 s horizon.
pub fn short(seed: u64, devices: u64) -> CampaignSpec {
    let classes = vec![
        DeviceClass::wifi("n5-acutemon-50ms", 4, phone::nexus5(), 50),
        DeviceClass::wifi("n5-ping-50ms", 2, phone::nexus5(), 50).sparse_ping(),
        DeviceClass::wifi("n4-fast-doze", 2, phone::nexus4(), 50)
            .sparse_ping()
            .with_sdio_idletime(1)
            .with_tip_ms(120.0)
            .with_listen_interval(3),
        DeviceClass::wifi("lte-acutemon-40ms", 1, phone::nexus5(), 40).with_radio(Radio::Lte),
        DeviceClass::wifi("umts-ping-40ms", 1, phone::nexus5(), 40)
            .sparse_ping()
            .with_radio(Radio::Umts),
    ];
    CampaignSpec::new(seed, devices, classes)
        .with_probes(2)
        .with_horizon(SimDuration::from_secs(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_matches_the_library_reference_population_today() {
        // Not a requirement, a tripwire: when the library's reference
        // population changes, this says so, and the benchmark keeps its
        // own copy.
        let ours = mixed(2016, 100);
        let lib = CampaignSpec::heterogeneous(2016, 100);
        assert_eq!(ours.fingerprint(), lib.fingerprint());
    }

    #[test]
    fn short_strata_are_a_subset_of_the_mixed_ones() {
        let names: Vec<&str> = mixed(1, 1).classes.iter().map(|c| c.name).collect();
        for c in &short(1, 1).classes {
            assert!(names.contains(&c.name), "{}", c.name);
            assert!(c.faults.is_none() && c.diurnal.is_none());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
