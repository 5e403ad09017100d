//! Crash-safety end-to-end: a journaling daemon killed (dropped
//! without any flush) and restarted over the same `--state-dir` must
//! recover to a `/snapshot` byte-identical to a never-killed run, keep
//! classifying re-sent finals as duplicates, keep one journal file per
//! slice, ack nothing its journal could not hold, and refuse every
//! journal fault at startup with a typed error.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

use collectord::{Daemon, Ingest, PushClient, PushOutcome, Store, StoreError};
use fleet::{run_campaign, run_partition, CampaignSpec};
use obs::ToJson;

fn spec() -> CampaignSpec {
    CampaignSpec::heterogeneous(7, 40).with_probes(2)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("collectord-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Spawn a journaling daemon on ephemeral ports; returns
/// (daemon, push addr, http addr).
fn start_daemon(spec: CampaignSpec, dir: &PathBuf) -> (Daemon, String, String) {
    let ingest = TcpListener::bind("127.0.0.1:0").unwrap();
    let http = TcpListener::bind("127.0.0.1:0").unwrap();
    let push_addr = ingest.local_addr().unwrap().to_string();
    let http_addr = http.local_addr().unwrap().to_string();
    let daemon = Daemon::with_store(spec, Store::open(dir).unwrap()).unwrap();
    let d = daemon.clone();
    std::thread::spawn(move || d.serve_ingest(ingest));
    let d = daemon.clone();
    std::thread::spawn(move || d.serve_http(http));
    (daemon, push_addr, http_addr)
}

/// Minimal HTTP GET: returns (status line, body).
fn get(addr: &str, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("complete response");
    (head.lines().next().unwrap().to_string(), body.to_string())
}

/// The tentpole guarantee: kill the daemon mid-campaign (after acked
/// pushes, with *no* shutdown flush — every acked push must already be
/// durable), restart over the same state dir, finish the campaign, and
/// the `/snapshot` is byte-identical to an uninterrupted run.
#[test]
fn kill_and_restart_recovers_to_byte_identical_snapshot() {
    let spec = spec();
    let (expected, _) = run_campaign(&spec, 2);
    let expected = expected.to_json().to_string_pretty();
    let dir = tmpdir("kill-restart");

    // Daemon #1: an out-of-order final (folded on arrival, with the
    // gap at 0 still open) and a mid-run non-final half of slice 0.
    let (daemon1, push1, _http1) = start_daemon(spec.clone(), &dir);
    let (c1, _) = run_partition(&spec, 2, 1, 2);
    let mut client = PushClient::connect(&push1, "1/2").unwrap();
    assert_eq!(
        client.push(&c1, true).unwrap().outcome,
        PushOutcome::Absorbed
    );
    let mut c0_half = fleet::Collector::new_range(&spec, 0);
    for i in 0..10 {
        c0_half.absorb(&fleet::run_device(&spec, i));
    }
    let mut client = PushClient::connect(&push1, "0/2").unwrap();
    assert_eq!(
        client.push(&c0_half, false).unwrap().outcome,
        PushOutcome::Buffered
    );
    // SIGKILL stand-in: no flush, no goodbye. Acked pushes must already
    // be on disk.
    drop(client);
    drop(daemon1);

    // Daemon #2 over the same journal.
    let (_daemon2, push2, http2) = start_daemon(spec.clone(), &dir);

    // Recovery provenance is visible to operators.
    let (_, health) = get(&http2, "/healthz");
    assert!(health.starts_with("ok\n"), "{health}");
    assert!(health.contains("recovered merged_devices=20"), "{health}");
    let (_, status) = get(&http2, "/status");
    let doc = obs::Json::parse(&status).unwrap();
    let rec = doc.get("recovery").expect("recovery object on /status");
    assert_eq!(
        rec.get("slices_loaded").and_then(obs::Json::as_f64),
        Some(1.0),
        "{status}"
    );

    // The view already reflects the recovered slices (20 final + 10).
    assert_eq!(
        doc.get("devices_view").and_then(obs::Json::as_f64),
        Some(30.0),
        "{status}"
    );

    // A duplicate of the recovered final classifies as duplicate, not
    // overlap — the ledger survived too (idempotent resend-after-kill).
    let mut client = PushClient::connect(&push2, "1/2").unwrap();
    assert_eq!(
        client.push(&c1, true).unwrap().outcome,
        PushOutcome::Duplicate
    );

    // Finish slice 0; the campaign completes and the snapshot matches
    // the never-killed run byte for byte.
    let (c0, _) = run_partition(&spec, 2, 0, 2);
    let mut client = PushClient::connect(&push2, "0/2").unwrap();
    let ack = client.push(&c0, true).unwrap();
    assert_eq!(ack.outcome, PushOutcome::Absorbed);
    assert!(ack.complete);
    let (_, snapshot) = get(&http2, "/snapshot");
    assert_eq!(
        snapshot, expected,
        "recovered snapshot must be byte-identical"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A second kill after a final folded: the merged collector and its
/// ledger of folded slices recover, so a shard blindly re-sending its
/// folded final (it never saw the ack) still gets the idempotent
/// answer.
#[test]
fn absorbed_ledger_survives_restart() {
    let spec = spec();
    let dir = tmpdir("ledger");

    let (daemon1, push1, _) = start_daemon(spec.clone(), &dir);
    let (c0, _) = run_partition(&spec, 2, 0, 2);
    let mut client = PushClient::connect(&push1, "0/2").unwrap();
    assert_eq!(
        client.push(&c0, true).unwrap().outcome,
        PushOutcome::Absorbed
    );
    drop(client);
    drop(daemon1);

    let (_daemon2, push2, http2) = start_daemon(spec.clone(), &dir);
    let (_, health) = get(&http2, "/healthz");
    assert!(health.contains("recovered merged_devices=20"), "{health}");

    let mut client = PushClient::connect(&push2, "0/2").unwrap();
    assert_eq!(
        client.push(&c0, true).unwrap().outcome,
        PushOutcome::Duplicate,
        "re-sent folded final must be a duplicate, not an overlap"
    );
    // An older cumulative resend is stale, same as before the kill.
    let mut c0_half = fleet::Collector::new_range(&spec, 0);
    for i in 0..10 {
        c0_half.absorb(&fleet::run_device(&spec, i));
    }
    assert_eq!(
        client.push(&c0_half, false).unwrap().outcome,
        PushOutcome::Stale
    );

    let (c1, _) = run_partition(&spec, 2, 1, 2);
    let ack = client.push(&c1, true).unwrap();
    assert!(ack.complete);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The journal's file lifecycle: each slice's latest accepted push
/// lives in `slice-<start>.json`, a final overwrites its slice's
/// non-final file in place (nothing is compacted or deleted), and the
/// shutdown flush adds a rendered `snapshot.json`.
#[test]
fn compaction_and_flush_file_lifecycle() {
    let spec = spec();
    let dir = tmpdir("lifecycle");
    let store = Store::open(&dir).unwrap();
    let mut ingest = Ingest::with_store(spec.clone(), store).unwrap();
    let final_flag = |start: u64| {
        let body = std::fs::read_to_string(dir.join(format!("slice-{start}.json"))).unwrap();
        match obs::Json::parse(&body).unwrap().get("final") {
            Some(obs::Json::Bool(done)) => *done,
            other => panic!("slice-{start}.json: `final` is {other:?}"),
        }
    };
    let files = || {
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };

    // A non-final push is journaled as its slice's file.
    let mut c1_half = fleet::Collector::new_range(&spec, 20);
    for i in 20..30 {
        c1_half.absorb(&fleet::run_device(&spec, i));
    }
    ingest.push("1/2", &c1_half.state_json(), false, 0).unwrap();
    assert_eq!(files(), ["slice-20.json"]);
    assert!(!final_flag(20));

    // Its final, gap at 0 or not, overwrites that file in place.
    let (c1, _) = run_partition(&spec, 2, 1, 2);
    ingest.push("1/2", &c1.state_json(), true, 0).unwrap();
    assert_eq!(files(), ["slice-20.json"]);
    assert!(final_flag(20));

    // A duplicate final rewrites the same bytes; a stale push writes
    // nothing.
    let before = std::fs::read(dir.join("slice-20.json")).unwrap();
    ingest.push("1/2", &c1.state_json(), true, 0).unwrap();
    ingest.push("1/2", &c1_half.state_json(), false, 0).unwrap();
    assert_eq!(std::fs::read(dir.join("slice-20.json")).unwrap(), before);

    let (c0, _) = run_partition(&spec, 2, 0, 2);
    let ack = ingest.push("0/2", &c0.state_json(), true, 0).unwrap();
    assert!(ack.complete);
    assert_eq!(files(), ["slice-0.json", "slice-20.json"]);
    assert!(final_flag(0));

    // The shutdown flush renders the final snapshot next to the
    // journal, byte-identical to what /snapshot would serve, and
    // rewrites nothing else.
    ingest.flush_to_store().unwrap();
    let snapshot = std::fs::read_to_string(dir.join("snapshot.json")).unwrap();
    assert_eq!(snapshot, ingest.snapshot_pretty());
    assert_eq!(files(), ["slice-0.json", "slice-20.json", "snapshot.json"]);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A push whose journal write fails is not acked and changes nothing:
/// the shard gets the retryable `storage` error, the view and
/// `/snapshot` stay as they were, and once the journal can be written
/// again the re-send lands and recovers like a push that never failed.
/// (The directory is removed to make the write fail: file permissions
/// would not stop a process running as root.)
#[test]
fn failed_journal_write_acks_nothing() {
    let spec = spec();
    let dir = tmpdir("failed-write");
    let mut ingest = Ingest::with_store(spec.clone(), Store::open(&dir).unwrap()).unwrap();
    let (c0, _) = run_partition(&spec, 2, 0, 2);
    let (c1, _) = run_partition(&spec, 2, 1, 2);
    let mut c1_half = fleet::Collector::new_range(&spec, 20);
    for i in 20..30 {
        c1_half.absorb(&fleet::run_device(&spec, i));
    }
    let (view, snapshot) = (ingest.devices_view(), ingest.snapshot_pretty());

    std::fs::remove_dir_all(&dir).unwrap();
    for (state, done) in [(&c1_half, false), (&c1, true)] {
        let err = ingest
            .push("1/2", &state.state_json(), done, 0)
            .unwrap_err();
        assert_eq!(err.code(), "storage", "final {done}: {err}");
        assert!(err.is_retryable());
        assert_eq!(ingest.devices_view(), view, "final {done}");
        assert_eq!(ingest.snapshot_pretty(), snapshot, "final {done}");
    }

    std::fs::create_dir_all(&dir).unwrap();
    ingest.push("1/2", &c1.state_json(), true, 0).unwrap();
    let ack = ingest.push("0/2", &c0.state_json(), true, 0).unwrap();
    assert!(ack.complete, "{ack:?}");

    let mut never_failed = Ingest::new(spec.clone());
    never_failed.push("1/2", &c1.state_json(), true, 0).unwrap();
    never_failed.push("0/2", &c0.state_json(), true, 0).unwrap();
    let recovered = Ingest::with_store(spec, Store::open(&dir).unwrap()).unwrap();
    assert!(recovered.complete());
    assert_eq!(recovered.snapshot_pretty(), never_failed.snapshot_pretty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A re-sent final acks only what the disk holds: with its slice's
/// file gone from under the running ingest (the state directory
/// recreated after partition 0's final was acked), the duplicate
/// rewrites that file, and a fresh ingest over the directory recovers
/// the whole campaign.
#[test]
fn duplicate_final_rewrites_a_removed_slice_file() {
    let spec = spec();
    let dir = tmpdir("duplicate-rewrite");
    let mut ingest = Ingest::with_store(spec.clone(), Store::open(&dir).unwrap()).unwrap();
    let (c0, _) = run_partition(&spec, 2, 0, 2);
    let (c1, _) = run_partition(&spec, 2, 1, 2);
    ingest.push("0/2", &c0.state_json(), true, 0).unwrap();

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::create_dir_all(&dir).unwrap();
    let ack = ingest.push("0/2", &c0.state_json(), true, 0).unwrap();
    assert_eq!(ack.outcome, PushOutcome::Duplicate);
    assert!(
        dir.join("slice-0.json").exists(),
        "the duplicate wrote nothing"
    );
    assert!(
        ingest
            .push("1/2", &c1.state_json(), true, 0)
            .unwrap()
            .complete
    );

    let recovered = Ingest::with_store(spec.clone(), Store::open(&dir).unwrap()).unwrap();
    assert_eq!(recovered.devices_absorbed(), spec.devices);
    assert!(recovered.complete());
    assert_eq!(recovered.snapshot_pretty(), ingest.snapshot_pretty());

    // With the directory gone, the duplicate's rewrite fails and it
    // acks nothing: a retryable `storage` error, as for a new push.
    std::fs::remove_dir_all(&dir).unwrap();
    let err = ingest.push("0/2", &c0.state_json(), true, 0).unwrap_err();
    assert_eq!(err.code(), "storage", "{err}");
    assert!(err.is_retryable());
}

/// Every fault a journal directory can hold is a typed startup error —
/// never a silent fresh start, never a double count: files whose slices
/// overlap, a slice file copied under another start, a file that is not
/// JSON, another campaign's file, and a journal in the retired
/// `merged.json` layout (or a slice file wrapped in its header).
#[test]
fn every_journal_fault_is_a_typed_startup_error() {
    let spec = spec();
    let dir = tmpdir("faults");
    let journal_of = |pushes: &[(u64, u64, bool)]| {
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        for &(start, upto, done) in pushes {
            let mut c = fleet::Collector::new_range(&spec, start);
            for i in start..upto {
                c.absorb(&fleet::run_device(&spec, i));
            }
            store.write_slice(start, done, &c.state_json()).unwrap();
        }
        store
    };
    let corrupt_at = |name: &str, err: Result<Ingest, StoreError>| match err {
        Err(StoreError::Corrupt { path, message }) => {
            assert_eq!(path, dir.join(name), "{message}");
            message
        }
        Err(e) => panic!("{name}: expected a corrupt journal, got {e}"),
        Ok(_) => panic!("{name}: the journal recovered"),
    };

    // The control: two tiling slices, one final, recover.
    let store = journal_of(&[(0, 20, true), (20, 30, false)]);
    let ingest = Ingest::with_store(spec.clone(), store).unwrap();
    assert_eq!((ingest.devices_absorbed(), ingest.devices_view()), (20, 30));

    // Two files whose slices overlap: the later start is refused.
    let store = journal_of(&[(0, 20, true), (10, 30, false)]);
    let message = corrupt_at("slice-10.json", Ingest::with_store(spec.clone(), store));
    assert!(message.contains("overlaps"), "{message}");

    // A slice file copied under another start.
    let store = journal_of(&[(0, 20, true)]);
    std::fs::copy(dir.join("slice-0.json"), dir.join("slice-25.json")).unwrap();
    corrupt_at("slice-25.json", Ingest::with_store(spec.clone(), store));

    // A file that is not JSON.
    let store = journal_of(&[(0, 20, true)]);
    std::fs::write(dir.join("slice-20.json"), b"{\"final\": true, \"sta").unwrap();
    corrupt_at("slice-20.json", Ingest::with_store(spec.clone(), store));

    // Another campaign's file.
    let other = CampaignSpec::heterogeneous(8, 40).with_probes(2);
    let store = journal_of(&[]);
    let (c, _) = run_partition(&other, 1, 0, 2);
    store.write_slice(0, true, &c.state_json()).unwrap();
    assert!(matches!(
        Ingest::with_store(spec.clone(), store),
        Err(StoreError::SpecMismatch(_))
    ));

    // The retired layout: a merged.json beside (or without) the slice
    // files, and a slice file wrapped in its header.
    let store = journal_of(&[(20, 40, true)]);
    std::fs::write(dir.join("merged.json"), b"{}").unwrap();
    corrupt_at("merged.json", Ingest::with_store(spec.clone(), store));
    let store = journal_of(&[]);
    let (c, _) = run_partition(&spec, 2, 0, 2);
    let mut wrapped = obs::Json::object();
    wrapped.set("format", "collectord-ingest-slice");
    wrapped.set("version", 1u64);
    wrapped.set("spec_fingerprint", format!("{:016x}", spec.fingerprint()));
    wrapped.set("range_start", 0u64);
    wrapped.set("state", c.state_json());
    std::fs::write(dir.join("slice-0.json"), wrapped.to_string_pretty()).unwrap();
    corrupt_at("slice-0.json", Ingest::with_store(spec.clone(), store));

    std::fs::remove_dir_all(&dir).unwrap();
}
