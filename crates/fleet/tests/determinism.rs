//! Campaign determinism, stated as properties:
//!
//! 1. the merge algebra is order-independent over *real* device
//!    partials (not just synthetic streams — those live in `obs`): the
//!    `du` sketch and the whole [`Collector`] state, telemetry
//!    histograms included, come out byte-identical in any order;
//! 2. the merged campaign JSON is byte-identical for 1 vs. 8 workers;
//! 3. collector memory does not grow with the device or probe count:
//!    the engine holds one state per worker plus the collector, since
//!    each worker hands over exactly one state per segment and the
//!    segment is absorbed whole before the next starts (counted in the
//!    engine's `each_worker_hands_over_once_per_segment`);
//! 4. the 200-device report is the committed `baselines/fleet-200.json`,
//!    byte for byte, so no change moves a byte of it unnoticed.

use fleet::{run_campaign, run_device, CampaignSpec, Collector};
use obs::ToJson;

/// xorshift64* — a tiny deterministic shuffler for the property tests.
struct Shuffler(u64);

impl Shuffler {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

#[test]
fn sketch_merge_is_order_independent_over_real_partials() {
    let spec = CampaignSpec::heterogeneous(97, 12).with_probes(2);
    let partials: Vec<_> = (0..spec.devices).map(|i| run_device(&spec, i)).collect();

    // Merge the du sketches in many different orders (including a
    // tree-shaped reduction); every order must agree bit for bit.
    let merge_flat = |order: &[usize]| {
        let mut acc = am_stats::QuantileSketch::new();
        for &i in order {
            acc.merge(&partials[i].du);
        }
        acc.to_json().to_string_pretty()
    };
    // The same for the collector's full state — every stratum sketch,
    // counter and telemetry histogram.
    let collect = |order: &[usize]| {
        let mut c = Collector::new(&spec);
        for &i in order {
            c.absorb(&partials[i]);
        }
        c.state_json().to_string_pretty()
    };
    let forward: Vec<usize> = (0..partials.len()).collect();
    let reference = merge_flat(&forward);
    let reference_state = collect(&forward);
    assert!(
        reference_state.contains("\"sketch\""),
        "telemetry histograms present"
    );

    let mut reversed = forward.clone();
    reversed.reverse();
    assert_eq!(merge_flat(&reversed), reference, "reverse order diverged");
    assert_eq!(
        collect(&reversed),
        reference_state,
        "reverse collector diverged"
    );

    let mut rng = Shuffler(0xD1CE);
    for round in 0..5 {
        let mut order = forward.clone();
        rng.shuffle(&mut order);
        assert_eq!(merge_flat(&order), reference, "shuffle {round} diverged");
        assert_eq!(
            collect(&order),
            reference_state,
            "collector shuffle {round} diverged"
        );
    }

    // Tree reduction: ((0+1)+(2+3))+… — associativity, not just
    // commutativity.
    let mut layer: Vec<am_stats::QuantileSketch> = partials.iter().map(|p| p.du.clone()).collect();
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .map(|pair| {
                let mut acc = pair[0].clone();
                if let Some(rhs) = pair.get(1) {
                    acc.merge(rhs);
                }
                acc
            })
            .collect();
    }
    assert_eq!(
        layer[0].to_json().to_string_pretty(),
        reference,
        "tree reduction diverged"
    );
}

#[test]
fn campaign_json_is_byte_identical_for_1_vs_8_workers() {
    let spec = CampaignSpec::heterogeneous(2016, 40).with_probes(2);
    let (one, _) = run_campaign(&spec, 1);
    let (eight, _) = run_campaign(&spec, 8);
    let a = one.to_json().to_string_pretty();
    let b = eight.to_json().to_string_pretty();
    assert_eq!(a, b, "worker count leaked into the merged report");
    // And the report actually has content to disagree about.
    assert!(one.du_all.len() >= 80, "du_all {}", one.du_all.len());
    assert!(!one.obs.is_empty());
}

#[test]
fn campaign_report_equals_the_committed_baseline() {
    // What `repro fleet --fleet-devices 200 --fleet-workers 1` writes.
    let (report, _) = run_campaign(&CampaignSpec::heterogeneous(2016, 200), 1);
    let golden = include_str!("../../../baselines/fleet-200.json");
    assert!(
        report.to_json().to_string_pretty() == golden,
        "fleet.json moved; regenerate baselines/fleet-200.json only for a change \
         that moves campaign bytes on purpose"
    );
}
