//! A journaling ingest restarted after any push is the ingest that
//! never stopped: for every push script below (finals in order and
//! reversed, interleaved non-finals, a re-sent final, an older
//! cumulative push, a rejected overlap), a fresh `Ingest::with_store`
//! opened over the journal after each push serves the same `/snapshot`
//! bytes and counts as the live ingest, and answers the next push the
//! same way.

use std::path::{Path, PathBuf};

use collectord::{Ingest, Store};
use fleet::{run_device, CampaignSpec, Collector, DevicePartial};
use obs::Json;

/// One push: `shard` sends slice `start..` holding devices
/// `start..upto`, final or not, and the live ingest answers `want` (an
/// ack status or an error code).
#[derive(Clone, Copy, Debug)]
struct Step {
    shard: &'static str,
    start: u64,
    upto: u64,
    done: bool,
    want: &'static str,
}

const fn step(shard: &'static str, start: u64, upto: u64, done: bool, want: &'static str) -> Step {
    Step {
        shard,
        start,
        upto,
        done,
        want,
    }
}

fn spec() -> CampaignSpec {
    CampaignSpec::heterogeneous(11, 40).with_probes(2)
}

fn state(spec: &CampaignSpec, devices: &[DevicePartial], s: Step) -> Json {
    let mut c = Collector::new_range(spec, s.start);
    for d in &devices[s.start as usize..s.upto as usize] {
        c.absorb(d);
    }
    c.state_json()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("collectord-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A restarted daemon's view of the journal: a copy, so the restarted
/// ingest's own writes never reach the live one's files.
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn run_script(tag: &str, script: &[Step]) {
    let spec = spec();
    let devices: Vec<_> = (0..spec.devices).map(|i| run_device(&spec, i)).collect();
    let (dir, restart_dir) = (tmpdir(tag), tmpdir(&format!("{tag}-restart")));
    let mut live = Ingest::with_store(spec.clone(), Store::open(&dir).unwrap()).unwrap();
    // What the ingest restarted after the previous push answered to
    // this one.
    let mut restarted_answer = None;
    for (n, s) in script.iter().enumerate() {
        let doc = state(&spec, &devices, *s);
        let answer = live.push(s.shard, &doc, s.done, 0);
        let at = format!("{tag}: push {n} {s:?} ({answer:?})");
        let got = answer
            .as_ref()
            .map_or_else(|e| e.code(), |a| a.outcome.status());
        assert_eq!(got, s.want, "{at}");
        if let Some(restarted) = restarted_answer.take() {
            assert_eq!(restarted, answer, "{at}: answer after a restart");
        }

        copy_dir(&dir, &restart_dir);
        let mut restarted =
            Ingest::with_store(spec.clone(), Store::open(&restart_dir).unwrap()).unwrap();
        assert_eq!(restarted.snapshot_pretty(), live.snapshot_pretty(), "{at}");
        assert_eq!(
            restarted.devices_absorbed(),
            live.devices_absorbed(),
            "{at}"
        );
        assert_eq!(restarted.devices_view(), live.devices_view(), "{at}");
        assert_eq!(restarted.complete(), live.complete(), "{at}");
        if let Some(next) = script.get(n + 1) {
            let doc = state(&spec, &devices, *next);
            restarted_answer = Some(restarted.push(next.shard, &doc, next.done, 0));
        }
    }
    assert!(
        live.complete(),
        "{tag}: every script completes the campaign"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&restart_dir).unwrap();
}

#[test]
fn finals_in_order() {
    run_script(
        "in-order",
        &[
            step("0/2", 0, 20, true, "absorbed"),
            step("1/2", 20, 40, true, "absorbed"),
        ],
    );
}

#[test]
fn finals_reversed() {
    run_script(
        "reversed",
        &[
            step("2/3", 26, 40, true, "absorbed"),
            step("1/3", 13, 26, true, "absorbed"),
            step("0/3", 0, 13, true, "absorbed"),
        ],
    );
}

#[test]
fn interleaved_non_finals() {
    run_script(
        "interleaved",
        &[
            step("0/2", 0, 5, false, "buffered"),
            step("1/2", 20, 28, false, "buffered"),
            step("0/2", 0, 12, false, "buffered"),
            step("1/2", 20, 35, false, "buffered"),
            step("1/2", 20, 40, true, "absorbed"),
            step("0/2", 0, 18, false, "buffered"),
            step("0/2", 0, 20, true, "absorbed"),
        ],
    );
}

#[test]
fn re_sent_finals_and_stale_cumulatives() {
    run_script(
        "resent-stale",
        &[
            step("1/2", 20, 30, false, "buffered"),
            step("1/2", 20, 25, false, "stale"),
            step("1/2", 20, 30, false, "stale"),
            step("0/2", 0, 20, true, "absorbed"),
            step("0/2", 0, 20, true, "duplicate"),
            step("0/2", 0, 10, false, "stale"),
            step("1/2", 20, 40, true, "absorbed"),
            step("1/2", 20, 35, false, "stale"),
            step("1/2", 20, 40, true, "duplicate"),
        ],
    );
}

#[test]
fn rejected_overlaps() {
    run_script(
        "overlap",
        &[
            step("0/2", 0, 20, true, "absorbed"),
            step("rogue", 10, 30, false, "overlap"),
            step("1/2", 20, 30, false, "buffered"),
            step("rogue", 15, 25, true, "overlap"),
            step("rogue", 25, 40, false, "overlap"),
            step("1/2", 20, 40, true, "absorbed"),
            step("rogue", 30, 40, true, "overlap"),
        ],
    );
}
