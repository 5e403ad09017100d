//! Cross-process determinism: a campaign killed at any checkpoint and
//! resumed, or split into contiguous partitions and merged, must
//! produce JSON byte-identical to an uninterrupted single-process run.
//! Every state hand-off in these tests round-trips through actual JSON
//! text (serialize → parse → restore), exactly like the files the
//! `repro` binary writes.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use fleet::{
    merge_partials, partition_range, resume_campaign, run_campaign, run_campaign_opts, run_device,
    run_partition, run_partition_opts, CampaignSpec, CheckpointPolicy, Collector, ProgressSink,
    RunOptions,
};
use obs::{Json, ToJson};

fn spec() -> CampaignSpec {
    CampaignSpec::heterogeneous(42, 18).with_probes(2)
}

fn pretty(report: &fleet::CampaignReport) -> String {
    report.to_json().to_string_pretty()
}

/// The device-order reference: for every `done`, the serialized state
/// of a collector that absorbed `run_device(spec, start..start + done)`
/// in order.
fn prefix_states(spec: &CampaignSpec, start: u64, end: u64) -> Vec<String> {
    let mut collector = Collector::new_range(spec, start);
    let mut states = vec![collector.state_json().to_string_pretty()];
    for i in start..end {
        collector.absorb(&run_device(spec, i));
        states.push(collector.state_json().to_string_pretty());
    }
    states
}

/// Progress calls recorded as `(devices the state holds, state, done,
/// checkpoint file as the call saw it)`.
type Calls = Arc<Mutex<Vec<(u64, String, bool, Option<String>)>>>;

/// A progress sink every `every` devices that records each call,
/// reading the `checkpoint` file (when given) at the time of the call.
fn recording_sink(every: u64, checkpoint: Option<PathBuf>) -> (ProgressSink, Calls) {
    let calls: Calls = Arc::default();
    let sink_calls = calls.clone();
    let sink = ProgressSink {
        every,
        f: Arc::new(move |c, done| {
            sink_calls.lock().unwrap().push((
                c.devices_seen(),
                c.state_json().to_string_pretty(),
                done,
                checkpoint
                    .as_ref()
                    .and_then(|p| std::fs::read_to_string(p).ok()),
            ));
        }),
    };
    (sink, calls)
}

/// `(workers, checkpoint every, progress every, halt)` for 1, 2 and 4
/// workers, checkpoints every 1, 3 or 7 devices, progress every 2 or 5,
/// and every halt point on neither grid (with `every` = 1 every point
/// is a checkpoint point, so there the halt is only off the progress
/// grid).
fn off_grid_halts(devices: u64) -> Vec<(usize, u64, u64, u64)> {
    let mut cases = Vec::new();
    for workers in [1, 2, 4] {
        for cp_every in [1u64, 3, 7] {
            for ps_every in [2u64, 5] {
                cases.extend(
                    (1..devices)
                        .filter(|h| h % ps_every != 0 && (cp_every == 1 || h % cp_every != 0))
                        .map(|h| (workers, cp_every, ps_every, h)),
                );
            }
        }
    }
    cases
}

/// Kill the campaign at halt points on neither the checkpoint nor the
/// progress grid and resume from the checkpoint file the killed run
/// left behind. Every progress call, every checkpoint file it can see,
/// and the file left at the kill must hold exactly the in-order prefix
/// `[0, done)`, however the threads were scheduled; the resumed report
/// bytes must never change.
#[test]
fn resume_from_every_checkpoint_is_byte_identical() {
    let spec = spec();
    let (full, _) = run_campaign(&spec, 2);
    let full_json = pretty(&full);
    let prefix = prefix_states(&spec, 0, spec.devices);

    let dir = std::env::temp_dir().join(format!("fleet-resume-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (workers, cp_every, ps_every, halt) in off_grid_halts(spec.devices) {
        let case = format!(
            "{workers} workers, checkpoint every {cp_every}, progress every {ps_every}, \
             halt {halt}"
        );
        let cp = dir.join(format!("cp-{workers}-{cp_every}-{ps_every}-{halt}.json"));
        std::fs::remove_file(&cp).ok();
        let (sink, calls) = recording_sink(ps_every, Some(cp.clone()));
        let opts = RunOptions {
            checkpoint: Some(CheckpointPolicy {
                path: cp.clone(),
                every: cp_every,
            }),
            progress: Some(sink),
            halt_after_devices: Some(halt),
            ..RunOptions::default()
        };
        let (report, stats) = run_campaign_opts(&spec, workers, &opts);
        assert!(report.is_none(), "halted run must not produce a report");
        assert_eq!(stats.devices, halt);

        // The file holds the latest checkpoint point at or before
        // `done`, and does not exist before the first one.
        let last_checkpoint = |done: u64| done / cp_every * cp_every;
        let file_at = |done: u64| {
            let at = last_checkpoint(done);
            (at > 0).then(|| prefix[at as usize].clone())
        };
        // A halted run makes no final `done` call.
        let calls = calls.lock().unwrap();
        let points: Vec<(u64, bool)> = calls.iter().map(|c| (c.0, c.2)).collect();
        let grid: Vec<(u64, bool)> = (1..=halt / ps_every)
            .map(|k| (k * ps_every, false))
            .collect();
        assert_eq!(points, grid, "{case}");
        for (done, state, _, file) in calls.iter() {
            assert_eq!(*state, prefix[*done as usize], "{case}: progress at {done}");
            assert_eq!(*file, file_at(*done), "{case}: checkpoint at {done}");
        }
        let left = std::fs::read_to_string(&cp).ok();
        assert_eq!(left, file_at(halt), "{case}: checkpoint left at the kill");
        let Some(body) = left else { continue };

        // Restore from the on-disk checkpoint, like `repro --resume`.
        let state = Json::parse(&body).unwrap();
        let (resumed, stats) =
            resume_campaign(&spec, workers, &state, &RunOptions::default()).unwrap();
        assert_eq!(
            stats.devices,
            spec.devices - last_checkpoint(halt),
            "{case}: resume runs only the tail"
        );
        assert_eq!(pretty(&resumed.unwrap()), full_json, "{case}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A partition counts its progress grid from its own range start: every
/// call, the final `done` one included, holds the in-order prefix of
/// its slice.
#[test]
fn partition_progress_describes_prefixes_of_its_slice() {
    let spec = spec();
    let (start, end) = partition_range(spec.devices, 1, 2);
    let prefix = prefix_states(&spec, start, end);
    let len = end - start;
    for workers in [1, 2, 4] {
        let (sink, calls) = recording_sink(4, None);
        let opts = RunOptions {
            progress: Some(sink),
            ..RunOptions::default()
        };
        let (collector, stats) = run_partition_opts(&spec, workers, 1, 2, &opts);
        assert_eq!(stats.devices, len);
        let calls = calls.lock().unwrap();
        let points: Vec<(u64, bool)> = calls.iter().map(|c| (c.0, c.2)).collect();
        let expected: Vec<(u64, bool)> = (4..len)
            .step_by(4)
            .map(|d| (d, false))
            .chain([(len, true)])
            .collect();
        assert_eq!(points, expected, "{workers} workers");
        for (done, state, ..) in calls.iter() {
            assert_eq!(
                *state, prefix[*done as usize],
                "{workers} workers at {done}"
            );
        }
        assert_eq!(
            collector.state_json().to_string_pretty(),
            prefix[len as usize]
        );
    }
}

/// A resumed run counts its checkpoint and progress grids from the
/// device it resumes at. Run to completion, it still checkpoints at its
/// last grid point and ends with one `done` call holding the whole
/// campaign.
#[test]
fn observed_resume_counts_its_grids_from_the_resume_point() {
    let spec = spec();
    let prefix = prefix_states(&spec, 0, spec.devices);
    let (full, _) = run_campaign(&spec, 1);
    let resume_at = 7;
    let dir = std::env::temp_dir().join(format!("fleet-resume3-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for workers in [1, 2, 4] {
        let cp = dir.join(format!("cp-{workers}.json"));
        let (sink, calls) = recording_sink(2, None);
        let opts = RunOptions {
            checkpoint: Some(CheckpointPolicy {
                path: cp.clone(),
                every: 3,
            }),
            progress: Some(sink),
            ..RunOptions::default()
        };
        let state = Json::parse(&prefix[resume_at]).unwrap();
        let (report, stats) = resume_campaign(&spec, workers, &state, &opts).unwrap();
        assert_eq!(pretty(&report.unwrap()), pretty(&full), "{workers} workers");
        // 11 devices from device 7: progress after 2, 4, .., 10 of them
        // (the state then holds 9, 11, .., 17 devices) and a final call
        // after 11; the last checkpoint after 9.
        assert_eq!(stats.devices, 11);
        let calls = calls.lock().unwrap();
        let points: Vec<(u64, bool)> = calls.iter().map(|c| (c.0, c.2)).collect();
        let expected = [
            (9, false),
            (11, false),
            (13, false),
            (15, false),
            (17, false),
            (18, true),
        ];
        assert_eq!(points, expected, "{workers} workers");
        for (seen, state, ..) in calls.iter() {
            assert_eq!(
                *state, prefix[*seen as usize],
                "{workers} workers at {seen}"
            );
        }
        assert_eq!(std::fs::read_to_string(&cp).unwrap(), prefix[resume_at + 9]);
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
fn counts_a_json_number_cannot_carry_exactly_are_refused() {
    let spec = CampaignSpec::heterogeneous(9, 22).with_probes(2);
    let parts: Vec<Json> = (0..2)
        .map(|i| run_partition(&spec, 1, i, 2).0.state_json())
        .collect();
    let with_probes_sent = |v: &str| {
        let mut doc = parts[0].clone();
        let mut strata = doc.get("strata").unwrap().as_arr().unwrap().to_vec();
        strata[0].set("probes_sent", Json::parse(v).unwrap());
        doc.set("strata", Json::Arr(strata));
        doc
    };
    // 1e300 read as `u64::MAX` once, and the merge's add overflowed.
    for bad in ["1e300", "9007199254740994", "-4", "2.5"] {
        let doc = with_probes_sent(bad);
        let e = fleet::Collector::from_state_json(&doc).err().unwrap();
        assert!(
            e.0.contains("stratum 0: field `probes_sent` is not a non-negative integer"),
            "{bad}: {e}"
        );
        let e = merge_partials(&spec, &[doc, parts[1].clone()]).unwrap_err();
        assert!(
            e.0.contains("partial 0") && e.0.contains("probes_sent"),
            "{bad}: {e}"
        );
    }
    let mut doc = parts[1].clone();
    doc.set("range_start", Json::Num(1e300));
    let e = fleet::Collector::from_state_json(&doc).err().unwrap();
    assert!(e.0.contains("field `range_start`"), "{e}");
    // The largest count a JSON number carries exactly still reads.
    let most = with_probes_sent("9007199254740992");
    assert!(merge_partials(&spec, &[most, parts[1].clone()]).is_ok());
}

#[test]
fn state_whose_device_count_disagrees_with_its_strata_is_refused() {
    // Partition 0 of 2 covers devices 0..4. Claiming 8 would make it
    // tile the whole campaign on its own.
    let spec = CampaignSpec::heterogeneous(3, 8);
    let (head, _) = run_partition(&spec, 1, 0, 2);
    let mut state = head.state_json();
    assert_eq!(state.get("devices_seen").and_then(Json::as_f64), Some(4.0));
    state.set("devices_seen", Json::Num(8.0));
    let e = match fleet::Collector::from_state_json(&state) {
        Err(e) => e,
        Ok(c) => panic!("accepted {} devices over 4 in strata", c.devices_seen()),
    };
    assert!(
        e.0.contains("`devices_seen` is 8 but the strata hold 4 devices"),
        "{e}"
    );
    let e = merge_partials(&spec, &[state]).unwrap_err();
    assert!(
        e.0.contains("partial 0") && e.0.contains("devices_seen"),
        "{e}"
    );
    assert!(fleet::Collector::from_state_json(&head.state_json()).is_ok());
}

#[test]
fn state_whose_next_index_disagrees_with_its_range_is_refused() {
    // Partition 1 of 2 covers devices 4..8, so a resume would restart
    // at 8; a document that says otherwise is refused, whichever way it
    // is off.
    let spec = CampaignSpec::heterogeneous(3, 8);
    let (head, _) = run_partition(&spec, 1, 0, 2);
    let (tail, _) = run_partition(&spec, 1, 1, 2);
    assert_eq!(
        tail.state_json().get("next_index").and_then(Json::as_f64),
        Some(8.0)
    );
    for wrong in [0.0, 4.0, 7.0, 9.0] {
        let mut state = tail.state_json();
        state.set("next_index", Json::Num(wrong));
        let e = match fleet::Collector::from_state_json(&state) {
            Err(e) => e,
            Ok(_) => panic!("accepted `next_index` {wrong} for devices 4..8"),
        };
        assert!(
            e.0.contains(&format!(
                "`next_index` is {wrong} but the range starts at device 4 and holds 4 devices"
            )),
            "{e}"
        );
        let e = merge_partials(&spec, &[head.state_json(), state]).unwrap_err();
        assert!(
            e.0.contains("partial 1") && e.0.contains("next_index"),
            "{e}"
        );
    }
    let mut state = tail.state_json();
    state.set("next_index", Json::Str("8".to_string()));
    let e = fleet::Collector::from_state_json(&state).err().unwrap();
    assert!(e.0.contains("field `next_index`"), "{e}");
    assert!(merge_partials(&spec, &[head.state_json(), tail.state_json()]).is_ok());
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

#[test]
fn campaign_state_of_another_version_is_refused() {
    let spec = spec();
    let (head, _) = run_partition(&spec, 1, 0, 2);
    let state = head.state_json();
    assert_eq!(
        state.get("version").and_then(Json::as_f64),
        Some(fleet::CAMPAIGN_STATE_VERSION as f64)
    );
    assert!(fleet::Collector::from_state_json(&state).is_ok());
    // Version 1 state ran each device on to the horizon; it is refused
    // by name rather than through a nested error.
    for version in [1, fleet::CAMPAIGN_STATE_VERSION + 1] {
        let mut other = state.clone();
        other.set("version", Json::Num(version as f64));
        let err = match fleet::Collector::from_state_json(&other) {
            Err(err) => err,
            Ok(_) => panic!("version {version} accepted"),
        };
        assert_eq!(
            err,
            fleet::CampaignStateError(format!(
                "campaign-state version {version} is not supported (expected {})",
                fleet::CAMPAIGN_STATE_VERSION
            ))
        );
        let err = resume_campaign(&spec, 1, &other, &RunOptions::default())
            .map(|_| ())
            .unwrap_err();
        assert!(err.0.contains(&format!("version {version}")), "{err}");
    }
}

/// Every histogram has the one set of bounds and every sketch the one
/// accuracy, so state with another of either is refused where it is
/// read, with an error that names the histogram or sketch, before any
/// merge could meet it. (A resume used to read an edited bound and then
/// panic when the engine folded its workers' states into it.)
#[test]
fn foreign_bounds_and_accuracy_are_refused_where_they_are_read() {
    let spec = spec();
    let parts: Vec<String> = (0..2)
        .map(|i| run_partition(&spec, 1, i, 2).0.state_json().to_string())
        .collect();
    let head = Json::parse(&parts[0]).unwrap();
    let hists = head.get("obs").and_then(|o| o.get("histograms"));
    let first = hists.and_then(Json::as_arr).unwrap()[0].get("name");
    let first = first.and_then(Json::as_str).unwrap();
    let gamma = |alpha: f64| format!("\"gamma\":{}", Json::Num((1.0 + alpha) / (1.0 - alpha)));
    // Each edit hits the first match: the first histogram's first bound,
    // and stratum 0's `du` sketch (strata precede everything else).
    let edits = [
        (
            parts[0].replacen("\"bounds\":[0.25,", "\"bounds\":[0.125,", 1),
            format!("histogram `{first}`"),
            "different bounds",
        ),
        (
            parts[0].replacen(&gamma(0.005), &gamma(0.02), 1),
            "stratum 0 sketch `du`".to_string(),
            "accuracy",
        ),
    ];
    for (edited, names, why) in &edits {
        assert_ne!(edited, &parts[0], "{why}: the edit must apply");
        let edited = Json::parse(edited).unwrap();
        let err = resume_campaign(&spec, 2, &edited, &RunOptions::default())
            .map(|_| ())
            .unwrap_err();
        assert!(err.0.contains(names) && err.0.contains(why), "{err}");
        let tail = Json::parse(&parts[1]).unwrap();
        let err = merge_partials(&spec, &[edited, tail]).unwrap_err();
        assert!(
            err.0.contains("partial 0") && err.0.contains(names) && err.0.contains(why),
            "{err}"
        );
    }
    assert!(resume_campaign(&spec, 2, &head, &RunOptions::default()).is_ok());
}
