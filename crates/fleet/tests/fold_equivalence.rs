//! One fold, two targets: an engine worker folds each device straight
//! into its segment's collector, and `run_device` folds it into a
//! fresh `DevicePartial` that `Collector::absorb` merges. Both must
//! give the same campaign state to the byte, on the reference
//! population and on a short-session one (two probes, no cross traffic
//! or faults, a cellular share), at any worker count.

use fleet::{run_device, run_partition, CampaignSpec, Collector};
use simcore::SimDuration;

/// The AcuteMon, sparse-ping, fast-doze, LTE and UMTS strata of the
/// reference population, in two-probe sessions of at most 3 s.
fn short(seed: u64, devices: u64) -> CampaignSpec {
    let keep = [
        "n5-acutemon-50ms",
        "n5-ping-50ms",
        "n4-fast-doze",
        "lte-acutemon-40ms",
        "umts-ping-40ms",
    ];
    let classes = CampaignSpec::heterogeneous(seed, devices)
        .classes
        .into_iter()
        .filter(|c| keep.contains(&c.name))
        .collect::<Vec<_>>();
    assert_eq!(classes.len(), keep.len());
    CampaignSpec::new(seed, devices, classes)
        .with_probes(2)
        .with_horizon(SimDuration::from_secs(3))
}

#[test]
fn engine_fold_equals_absorbing_every_device_partial() {
    for spec in [CampaignSpec::heterogeneous(2016, 200), short(2016, 200)] {
        let mut absorbed = Collector::new(&spec);
        for i in 0..spec.devices {
            absorbed.absorb(&run_device(&spec, i));
        }
        let expected = absorbed.state_json().to_string();
        for workers in [1, 2, 4] {
            let (folded, _) = run_partition(&spec, workers, 0, 1);
            assert_eq!(
                folded.state_json().to_string(),
                expected,
                "{} strata at {workers} workers",
                spec.classes.len()
            );
        }
    }
}
