//! Cross-process determinism: a campaign killed at any checkpoint and
//! resumed, or split into contiguous partitions and merged, must
//! produce JSON byte-identical to an uninterrupted single-process run.
//! Every state hand-off in these tests round-trips through actual JSON
//! text (serialize → parse → restore), exactly like the files the
//! `repro` binary writes.

use fleet::{
    merge_partials, resume_campaign, run_campaign, run_campaign_opts, run_partition, CampaignSpec,
    CheckpointPolicy, RunOptions,
};
use obs::{Json, ToJson};

fn spec() -> CampaignSpec {
    CampaignSpec::heterogeneous(42, 18).with_probes(2)
}

fn pretty(report: &fleet::CampaignReport) -> String {
    report.to_json().to_string_pretty()
}

/// Kill the campaign after every possible device count, resume from the
/// checkpoint file the killed run left behind, and demand the final
/// report bytes never change.
#[test]
fn resume_from_every_checkpoint_is_byte_identical() {
    let spec = spec();
    let (full, _) = run_campaign(&spec, 2);
    let full_json = pretty(&full);

    let dir = std::env::temp_dir().join(format!("fleet-resume-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for halt in 1..spec.devices {
        let cp = dir.join(format!("cp-{halt}.json"));
        let opts = RunOptions {
            checkpoint: Some(CheckpointPolicy {
                path: cp.clone(),
                every: 1,
            }),
            halt_after_devices: Some(halt),
            ..RunOptions::default()
        };
        let (report, stats) = run_campaign_opts(&spec, 3, &opts);
        assert!(report.is_none(), "halted run must not produce a report");
        assert_eq!(stats.devices, halt);

        // Restore from the on-disk checkpoint, like `repro --resume`.
        let state = Json::parse(&std::fs::read_to_string(&cp).unwrap()).unwrap();
        let (resumed, stats) = resume_campaign(&spec, 2, &state, &RunOptions::default()).unwrap();
        assert_eq!(
            stats.devices,
            spec.devices - halt,
            "resume runs only the tail"
        );
        assert_eq!(
            pretty(&resumed.unwrap()),
            full_json,
            "killed at device {halt}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A resume can itself be killed and resumed again: chain three
/// partial runs through checkpoints and still match the full run.
#[test]
fn double_kill_double_resume_is_byte_identical() {
    let spec = spec();
    let (full, _) = run_campaign(&spec, 1);

    let dir = std::env::temp_dir().join(format!("fleet-resume2-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cp = dir.join("cp.json");
    let halt = |n| RunOptions {
        checkpoint: Some(CheckpointPolicy {
            path: cp.clone(),
            every: 1,
        }),
        halt_after_devices: Some(n),
        ..RunOptions::default()
    };
    let (r, _) = run_campaign_opts(&spec, 2, &halt(5));
    assert!(r.is_none());
    let state = Json::parse(&std::fs::read_to_string(&cp).unwrap()).unwrap();
    let (r, _) = resume_campaign(&spec, 3, &state, &halt(7)).unwrap();
    assert!(r.is_none());
    let state = Json::parse(&std::fs::read_to_string(&cp).unwrap()).unwrap();
    let (r, _) = resume_campaign(&spec, 2, &state, &RunOptions::default()).unwrap();
    assert_eq!(pretty(&r.unwrap()), pretty(&full));
    std::fs::remove_dir_all(&dir).ok();
}

/// k contiguous partitions, each run independently and serialized to
/// JSON text, merge back into the single-process report — for k = 1
/// (degenerate) and k = 4, with partials supplied out of order.
#[test]
fn partition_merge_equals_single_process() {
    let spec = CampaignSpec::heterogeneous(9, 22).with_probes(2);
    let (single, _) = run_campaign(&spec, 2);
    let single_json = pretty(&single);

    for k in [1u64, 4] {
        let mut parts: Vec<Json> = (0..k)
            .map(|i| {
                let (collector, _) = run_partition(&spec, 2, i, k);
                // Round-trip through text like fleet.partial-i-of-k.json.
                Json::parse(&collector.state_json().to_string_pretty()).unwrap()
            })
            .collect();
        parts.reverse(); // merge_partials sorts by range_start
        let merged = merge_partials(&spec, &parts).unwrap();
        assert_eq!(pretty(&merged), single_json, "k = {k}");
    }
}

#[test]
fn merge_rejects_wrong_spec_gaps_and_overlaps() {
    let spec = CampaignSpec::heterogeneous(9, 22).with_probes(2);
    let parts: Vec<Json> = (0..4)
        .map(|i| run_partition(&spec, 1, i, 4).0.state_json())
        .collect();

    // Wrong seed → fingerprint mismatch.
    let other = CampaignSpec::heterogeneous(10, 22).with_probes(2);
    assert!(merge_partials(&other, &parts).is_err());

    // Missing a slice → not contiguous.
    let gappy: Vec<Json> = vec![parts[0].clone(), parts[2].clone(), parts[3].clone()];
    let e = merge_partials(&spec, &gappy).unwrap_err();
    assert!(e.0.contains("gap or an overlap"), "{e}");

    // Duplicate slice → overlap.
    let dupe: Vec<Json> = vec![parts[0].clone(), parts[1].clone(), parts[1].clone()];
    let e = merge_partials(&spec, &dupe).unwrap_err();
    assert!(e.0.contains("gap or an overlap"), "{e}");

    // Not starting at device 0.
    assert!(merge_partials(&spec, &parts[1..]).is_err());
    // Tiling but short of the population.
    let e = merge_partials(&spec, &parts[..3]).unwrap_err();
    assert!(e.0.contains("cover"), "{e}");

    // A partial whose *last* stratum was renamed is a typed error, and
    // `absorb_state` checks it before folding the strata ahead of it.
    let last = spec.classes.last().unwrap().name;
    let renamed = Json::parse(&parts[1].to_string().replacen(
        &format!("\"{last}\""),
        "\"renamed\"",
        1,
    ))
    .unwrap();
    let e = merge_partials(
        &spec,
        &[
            parts[0].clone(),
            renamed.clone(),
            parts[2].clone(),
            parts[3].clone(),
        ],
    )
    .unwrap_err();
    assert!(e.0.contains("stratum name mismatch"), "{e}");
    let mut merged = fleet::Collector::from_state_json(&parts[0]).unwrap();
    let before = merged.state_json().to_string();
    let renamed = fleet::Collector::from_state_json(&renamed).unwrap();
    assert!(merged.absorb_state(&renamed).is_err());
    assert_eq!(merged.state_json().to_string(), before, "nothing folded");
}

#[test]
fn resume_rejects_partition_partials_and_foreign_state() {
    let spec = spec();
    let (tail, _) = run_partition(&spec, 1, 1, 2);
    let err = resume_campaign(&spec, 1, &tail.state_json(), &RunOptions::default());
    assert!(err.is_err(), "a mid-campaign partial is not a resume point");

    let other = CampaignSpec::heterogeneous(43, 18).with_probes(2);
    let (head, _) = run_partition(&other, 1, 0, 2);
    let err = resume_campaign(&spec, 1, &head.state_json(), &RunOptions::default());
    assert!(err.is_err(), "state from another campaign must be rejected");

    assert!(
        fleet::Collector::from_state_json(&Json::parse("{\"format\":\"nope\"}").unwrap()).is_err()
    );
}
