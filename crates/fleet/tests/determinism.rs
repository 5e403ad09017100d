//! Campaign determinism, stated as properties:
//!
//! 1. the merge algebra is order-independent over *real* device
//!    partials (not just synthetic streams — those live in `obs`): the
//!    `du` sketch and the whole [`Collector`] state, registry
//!    histograms included, come out byte-identical in any order;
//! 2. the merged campaign JSON is byte-identical for 1 vs. 8 workers;
//! 3. collector memory stays bounded by in-flight work, independent of
//!    probe count.

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
    // counter and registry histogram.
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
        "registry histograms present"
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
fn collector_memory_is_bounded_by_inflight_work() {
    // Probe count scales the per-device work, not the campaign state:
    // the reorder buffer's high-water mark depends only on workers and
    // channel capacity.
    let small = CampaignSpec::heterogeneous(3, 24).with_probes(1);
    let big = CampaignSpec::heterogeneous(3, 24).with_probes(4);
    let (_, s) = run_campaign(&small, 4);
    let (_, b) = run_campaign(&big, 4);
    let bound = 4 + 4 * 2; // workers + channel capacity
    assert!(s.reorder_peak <= bound, "small peak {}", s.reorder_peak);
    assert!(b.reorder_peak <= bound, "big peak {}", b.reorder_peak);
}
