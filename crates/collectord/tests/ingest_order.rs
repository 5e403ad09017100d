//! Ingest-order guarantees: the daemon's snapshot must be
//! byte-identical to a single-process `fleet.json` no matter how
//! partitions arrive — interleaved, re-sent, duplicated, or fully
//! reversed — final slices fold the moment they arrive, and every
//! adversarial push (wrong campaign, overlapping or out-of-bounds
//! slices, state that cannot merge) must be rejected with a typed error
//! that leaves campaign state and the journal untouched.

use collectord::{Ingest, IngestError, PushOutcome, Store};
use fleet::{run_campaign, run_device, CampaignSpec, Collector};
use obs::{Json, QuantileSketch, ToJson};

fn spec() -> CampaignSpec {
    CampaignSpec::heterogeneous(42, 60).with_probes(2)
}

fn expected_json(spec: &CampaignSpec) -> String {
    let (report, _) = run_campaign(spec, 3);
    report.to_json().to_string_pretty()
}

/// The cumulative state of slice `start..end` after absorbing devices
/// `start..upto` in order — exactly what a shard's `--push-to` stream
/// carries mid-run (`upto < end`) and at the end (`upto == end`).
fn slice_state(spec: &CampaignSpec, start: u64, upto: u64) -> Json {
    let mut c = Collector::new_range(spec, start);
    for i in start..upto {
        c.absorb(&run_device(spec, i));
    }
    c.state_json()
}

#[test]
fn reversed_final_partitions_merge_byte_identical() {
    let spec = spec();
    let mut ingest = Ingest::new(spec.clone());
    let slices = [(40, 60, "2/3"), (20, 40, "1/3"), (0, 20, "0/3")];
    for (n, (start, end, shard)) in slices.iter().enumerate() {
        let ack = ingest
            .push(shard, &slice_state(&spec, *start, *end), true, 0)
            .unwrap();
        // Every final folds on arrival, gap or no gap.
        assert_eq!(ack.outcome, PushOutcome::Absorbed, "slice {start}..{end}");
        assert_eq!(ack.devices_absorbed, 20 * (n as u64 + 1));
        assert_eq!(ack.complete, n + 1 == slices.len());
    }
    assert_eq!(ingest.snapshot_pretty(), expected_json(&spec));
}

#[test]
fn interleaved_cumulative_pushes_converge_to_single_process_bytes() {
    let spec = spec();
    let mut ingest = Ingest::new(spec.clone());

    // Two shards stream cumulative prefixes, interleaved.
    let a = |upto| slice_state(&spec, 0, upto);
    let b = |upto| slice_state(&spec, 30, upto);
    assert_eq!(
        ingest.push("0/2", &a(10), false, 0).unwrap().outcome,
        PushOutcome::Buffered,
        "non-final prefixes stay buffered even at the frontier"
    );
    assert_eq!(
        ingest.push("1/2", &b(45), false, 0).unwrap().outcome,
        PushOutcome::Buffered
    );
    assert_eq!(ingest.devices_view(), 25, "10 + 15 devices in view");
    assert_eq!(ingest.devices_absorbed(), 0, "nothing final yet");

    let mid = ingest.view().report();
    assert_eq!(mid.devices, 25, "mid-run view aggregates both prefixes");

    assert_eq!(
        ingest.push("0/2", &a(20), false, 0).unwrap().outcome,
        PushOutcome::Buffered
    );
    let ack = ingest.push("1/2", &b(60), true, 0).unwrap();
    assert_eq!(ack.outcome, PushOutcome::Absorbed, "final but gapped");
    assert_eq!(ack.devices_absorbed, 30);
    assert_eq!(ack.devices_view, 50);

    let ack = ingest.push("0/2", &a(30), true, 0).unwrap();
    assert_eq!(ack.outcome, PushOutcome::Absorbed);
    assert!(ack.complete);
    assert_eq!(ingest.devices_absorbed(), 60);
    assert_eq!(ingest.snapshot_pretty(), expected_json(&spec));
}

#[test]
fn resent_and_stale_pushes_are_idempotent() {
    let spec = spec();
    let mut ingest = Ingest::new(spec.clone());
    let full = slice_state(&spec, 0, 60);
    assert_eq!(
        ingest.push("0/1", &full, true, 0).unwrap().outcome,
        PushOutcome::Absorbed
    );
    let snap = ingest.snapshot_pretty();

    // Exact re-send of the folded final: duplicate no-op.
    let ack = ingest.push("0/1", &full, true, 0).unwrap();
    assert_eq!(ack.outcome, PushOutcome::Duplicate);
    assert_eq!(ack.devices_absorbed, 60);

    // A delayed older cumulative push arriving after the final: stale.
    let ack = ingest
        .push("0/1", &slice_state(&spec, 0, 40), false, 0)
        .unwrap();
    assert_eq!(ack.outcome, PushOutcome::Stale);

    assert_eq!(
        ingest.snapshot_pretty(),
        snap,
        "idempotent pushes must not move a single byte"
    );
    assert_eq!(ingest.snapshot_pretty(), expected_json(&spec));
}

#[test]
fn stale_cumulative_push_on_a_buffered_slice_is_dropped() {
    let spec = spec();
    let mut ingest = Ingest::new(spec.clone());
    ingest
        .push("1/2", &slice_state(&spec, 30, 50), false, 0)
        .unwrap();
    let ack = ingest
        .push("1/2", &slice_state(&spec, 30, 40), false, 0)
        .unwrap();
    assert_eq!(ack.outcome, PushOutcome::Stale);
    assert_eq!(ingest.devices_view(), 20, "newer cumulative state wins");
}

#[test]
fn wrong_fingerprint_push_is_rejected_with_typed_error() {
    let spec = spec();
    let mut ingest = Ingest::new(spec.clone());

    // Same shape, different seed: a state document from a different
    // campaign must bounce off the fingerprint check.
    let other = CampaignSpec::heterogeneous(43, 60).with_probes(2);
    let err = ingest
        .push("0/1", &slice_state(&other, 0, 10), false, 0)
        .unwrap_err();
    assert!(matches!(err, IngestError::SpecMismatch(_)), "{err:?}");
    assert_eq!(err.code(), "spec-mismatch");

    // Same seed, different probe count: still a different campaign.
    let other = CampaignSpec::heterogeneous(42, 60).with_probes(3);
    let err = ingest
        .push("0/1", &slice_state(&other, 0, 10), false, 0)
        .unwrap_err();
    assert_eq!(err.code(), "spec-mismatch");

    // Garbage state document.
    let err = ingest
        .push("0/1", &Json::parse("{\"a\": 1}").unwrap(), false, 0)
        .unwrap_err();
    assert_eq!(err.code(), "bad-state");

    assert_eq!(ingest.devices_view(), 0, "rejections leave state untouched");
    assert!(ingest.shards().is_empty());
}

#[test]
fn overlapping_and_out_of_bounds_slices_are_rejected() {
    let spec = spec();
    let mut ingest = Ingest::new(spec.clone());
    ingest
        .push("0/3", &slice_state(&spec, 0, 20), true, 0)
        .unwrap();
    ingest
        .push("2/3", &slice_state(&spec, 40, 55), false, 0)
        .unwrap();

    // Collides with the already-folded 0..20 final.
    let err = ingest
        .push("rogue", &slice_state(&spec, 10, 30), true, 0)
        .unwrap_err();
    assert_eq!(err.code(), "overlap");

    // Collides with the buffered 40..55 slice from behind...
    let err = ingest
        .push("rogue", &slice_state(&spec, 35, 45), false, 0)
        .unwrap_err();
    assert_eq!(err.code(), "overlap");
    // ...and a slice starting inside it collides too.
    let err = ingest
        .push("rogue", &slice_state(&spec, 50, 60), false, 0)
        .unwrap_err();
    assert_eq!(err.code(), "overlap");

    // A slice past the population end never validates.
    let big = CampaignSpec::heterogeneous(42, 80).with_probes(2);
    let err = ingest
        .push("rogue", &slice_state(&big, 60, 70), false, 0)
        .unwrap_err();
    // Same generator, larger population: fingerprint differs, so either
    // rejection is acceptable — but it must be typed, not a merge panic.
    assert!(
        matches!(
            err,
            IngestError::SpecMismatch(_) | IngestError::RangeOutOfBounds { .. }
        ),
        "{err:?}"
    );

    // The survivors still converge byte-identically.
    ingest
        .push("1/3", &slice_state(&spec, 20, 40), true, 0)
        .unwrap();
    let ack = ingest
        .push("2/3", &slice_state(&spec, 40, 60), true, 0)
        .unwrap();
    assert!(ack.complete);
    assert_eq!(ingest.snapshot_pretty(), expected_json(&spec));
}

#[test]
fn slice_overlapping_a_final_folded_out_of_order_is_rejected() {
    let spec = spec();
    let mut ingest = Ingest::new(spec.clone());
    let ack = ingest
        .push("2/3", &slice_state(&spec, 40, 60), true, 0)
        .unwrap();
    assert_eq!(ack.outcome, PushOutcome::Absorbed);
    // Starting inside the folded final, and reaching into it from
    // behind: both collide, final or not.
    let err = ingest
        .push("rogue", &slice_state(&spec, 50, 60), true, 0)
        .unwrap_err();
    assert_eq!(err.code(), "overlap");
    let err = ingest
        .push("rogue", &slice_state(&spec, 35, 45), false, 0)
        .unwrap_err();
    assert_eq!(err.code(), "overlap");
    assert_eq!(ingest.devices_view(), 20);
    // Up to the folded slice's start is fine.
    let ack = ingest
        .push("1/3", &slice_state(&spec, 20, 40), false, 0)
        .unwrap();
    assert_eq!(ack.outcome, PushOutcome::Buffered);
}

/// A push that passes the campaign check but cannot merge with what the
/// daemon holds is a typed `bad-state` — before anything is stored or
/// journaled, so the view and every later `/snapshot` stay intact.
#[test]
fn unmergeable_pushes_are_rejected_before_anything_is_stored() {
    let spec = spec();
    let dir = std::env::temp_dir().join(format!("ingest-unmergeable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ingest = Ingest::with_store(spec.clone(), Store::open(&dir).unwrap()).unwrap();
    ingest
        .push("0/3", &slice_state(&spec, 0, 20), true, 0)
        .unwrap();
    ingest
        .push("2/3", &slice_state(&spec, 40, 50), false, 0)
        .unwrap();
    let view = ingest.devices_view();
    let snapshot = ingest.snapshot_pretty();
    // Every journal file, by name, with its bytes.
    let journal = || {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                (path.clone(), std::fs::read(path).unwrap())
            })
            .collect();
        files.sort();
        files
    };
    let journaled = journal();

    // Each edit hits the first match: stratum 0's name and its `du`
    // sketch (strata precede everything else), and every histogram's
    // first bound.
    let good = slice_state(&spec, 20, 40).to_string();
    let gamma = |alpha| {
        QuantileSketch::with_alpha(alpha)
            .state_json()
            .get("gamma")
            .unwrap()
            .to_string()
    };
    let tampered = [
        (
            "stratum name mismatch",
            good.replacen(&format!("\"{}\"", spec.classes[0].name), "\"renamed\"", 1),
        ),
        ("accuracy", good.replacen(&gamma(0.005), &gamma(0.02), 1)),
        (
            "different bounds",
            good.replace("\"bounds\":[0.25,", "\"bounds\":[0.125,"),
        ),
        // A slice that claims 40 devices while its strata hold 20 would
        // tile the campaign through device 60.
        (
            "`devices_seen` is 40 but the strata hold 20 devices",
            good.replacen("\"devices_seen\":20,", "\"devices_seen\":40,", 1),
        ),
        // No sketch holds a min above its max; held, it made every later
        // quantile (so every `/snapshot`) panic.
        ("sketch `du_all`: min", {
            let mut doc = Json::parse(&good).unwrap();
            let mut du_all = doc.get("du_all").unwrap().clone();
            let field = |k| du_all.get(k).unwrap().clone();
            let (min, max) = (field("min"), field("max"));
            du_all.set("min", max);
            du_all.set("max", min);
            doc.set("du_all", du_all);
            doc.to_string()
        }),
    ];
    for (why, doc) in &tampered {
        assert_ne!(doc, &good, "{why}: the edit must apply");
        for done in [false, true] {
            let err = ingest
                .push("1/3", &Json::parse(doc).unwrap(), done, 0)
                .unwrap_err();
            assert_eq!(err.code(), "bad-state", "{why}, final {done}: {err:?}");
            assert!(err.to_string().contains(why), "{err}");
            assert_eq!(ingest.devices_view(), view, "{why}");
            assert_eq!(ingest.snapshot_pretty(), snapshot, "{why}");
        }
    }
    assert!(!dir.join("slice-20.json").exists(), "nothing journaled");
    assert_eq!(journal(), journaled);

    // The untampered slice still lands, and the campaign converges.
    ingest
        .push("1/3", &Json::parse(&good).unwrap(), true, 0)
        .unwrap();
    let ack = ingest
        .push("2/3", &slice_state(&spec, 40, 60), true, 0)
        .unwrap();
    assert!(ack.complete);
    assert_eq!(ingest.snapshot_pretty(), expected_json(&spec));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Devices/sec derives from consecutive push deltas, the ~zero-Δt and
/// non-advancing cases keep the previous estimate instead of dividing
/// by a stale heartbeat delta, and the campaign ETA follows the summed
/// live-shard rate.
#[test]
fn push_delta_rate_drives_eta_and_guards_division_by_zero() {
    let spec = spec();
    let mut ingest = Ingest::new(spec.clone());

    // First push: nothing to delta against yet.
    ingest
        .push("0/1", &slice_state(&spec, 0, 10), false, 0)
        .unwrap();
    assert!(ingest.shards()["0/1"].rate_dps.is_none());
    assert!(ingest.eta_secs().is_none(), "no usable rate yet");
    assert_eq!(ingest.throughput_dps(), 0.0);

    // A duplicate in (effectively) the same instant advances nothing;
    // the guard keeps the estimate rather than producing inf/NaN.
    ingest
        .push("0/1", &slice_state(&spec, 0, 10), false, 0)
        .unwrap();
    assert!(ingest.shards()["0/1"].rate_dps.is_none());

    // An advancing push after measurable time yields a finite rate,
    // which makes the campaign ETA computable.
    std::thread::sleep(std::time::Duration::from_millis(25));
    ingest
        .push("0/1", &slice_state(&spec, 0, 30), false, 0)
        .unwrap();
    let rate = ingest.shards()["0/1"].rate_dps.expect("delta-derived rate");
    assert!(rate.is_finite() && rate > 0.0, "{rate}");
    let eta = ingest.eta_secs().expect("live shard with a rate");
    assert!(eta.is_finite() && eta > 0.0, "{eta}");

    // Completion: done shards leave the throughput sum and the ETA
    // pins to zero.
    ingest
        .push("0/1", &slice_state(&spec, 0, 60), true, 0)
        .unwrap();
    assert!(ingest.complete());
    assert_eq!(ingest.eta_secs(), Some(0.0));
    assert_eq!(ingest.throughput_dps(), 0.0, "done shards don't count");
}
