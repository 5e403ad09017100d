//! End-to-end daemon test: a real `Daemon` on ephemeral ports, real
//! `PushClient` connections pushing two partitions from the fleet
//! engine, and raw HTTP GETs against every endpoint. The `/snapshot`
//! body must be byte-identical to the single-process campaign JSON.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use collectord::{Daemon, PushClient, PushError, PushOutcome};
use fleet::{run_campaign, run_partition, CampaignSpec};
use obs::ToJson;

fn spec() -> CampaignSpec {
    CampaignSpec::heterogeneous(7, 40).with_probes(2)
}

/// Spawn a daemon on ephemeral ports; returns (daemon, push addr, http addr).
fn start_daemon(spec: CampaignSpec) -> (Daemon, String, String) {
    let ingest = TcpListener::bind("127.0.0.1:0").unwrap();
    let http = TcpListener::bind("127.0.0.1:0").unwrap();
    let push_addr = ingest.local_addr().unwrap().to_string();
    let http_addr = http.local_addr().unwrap().to_string();
    let daemon = Daemon::new(spec);
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

#[test]
fn two_partition_push_yields_byte_identical_snapshot() {
    let spec = spec();
    let (expected, _) = run_campaign(&spec, 2);
    let expected = expected.to_json().to_string_pretty();

    let (daemon, push_addr, http_addr) = start_daemon(spec.clone());

    let (status, body) = get(&http_addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");

    // Push partition 1/2 first (out of order), then 0/2. The final
    // folds on arrival, gap before it or not.
    let (c1, _) = run_partition(&spec, 2, 1, 2);
    let mut client = PushClient::connect(&push_addr, "1/2").unwrap();
    let ack = client.push(&c1, true).unwrap();
    assert_eq!(ack.outcome, PushOutcome::Absorbed);
    assert_eq!(ack.devices_absorbed, 20);
    assert!(!ack.complete);

    // Mid-campaign, /snapshot already reflects the folded slice.
    let (_, body) = get(&http_addr, "/snapshot");
    assert!(body.contains("\"devices\": 20"), "view covers 1/2: {body}");

    let (c0, _) = run_partition(&spec, 2, 0, 2);
    let mut client = PushClient::connect(&push_addr, "0/2").unwrap();
    let ack = client.push(&c0, true).unwrap();
    assert_eq!(ack.outcome, PushOutcome::Absorbed);
    assert!(ack.complete);
    assert_eq!(ack.devices_absorbed, spec.devices);
    assert!(daemon.complete());

    let (status, body) = get(&http_addr, "/snapshot");
    assert!(status.contains("200"), "{status}");
    assert_eq!(
        body, expected,
        "daemon snapshot must be byte-identical to the single-process report"
    );

    // /metrics: conformant exposition plus per-shard labelled series.
    let (_, metrics) = get(&http_addr, "/metrics");
    assert!(metrics.contains("# TYPE collectord_ingest_pushes_total counter"));
    assert!(metrics.contains("collectord_ingest_pushes_total 2"));
    assert!(metrics.contains("collectord_devices_absorbed 40"));
    assert!(metrics.contains("collectord_devices_expected 40"));
    assert!(metrics.contains("# TYPE collectord_ingest_batch_ms histogram"));
    assert!(metrics.contains("collectord_shard_pushes_total{shard=\"0/2\"} 1"));
    assert!(metrics.contains("collectord_shard_pushes_total{shard=\"1/2\"} 1"));
    assert!(metrics.contains("collectord_shard_final{shard=\"0/2\"} 1"));
    assert!(metrics.contains("collectord_shard_heartbeat_age_seconds{shard=\"1/2\"}"));

    // /status: machine-readable progress.
    let (_, status_body) = get(&http_addr, "/status");
    let doc = obs::Json::parse(&status_body).unwrap();
    assert_eq!(
        doc.get("complete"),
        Some(&obs::Json::Bool(true)),
        "{status_body}"
    );
    assert_eq!(
        doc.get("devices_absorbed").and_then(obs::Json::as_f64),
        Some(40.0)
    );

    // Dashboard renders and carries both shards.
    let (status, html) = get(&http_addr, "/");
    assert!(status.contains("200"), "{status}");
    assert!(html.contains("<!DOCTYPE html>"));
    assert!(html.contains("0/2") && html.contains("1/2"));
    assert!(html.contains("complete"));

    let (status, _) = get(&http_addr, "/nope");
    assert!(status.contains("404"), "{status}");
}

#[test]
fn wrong_campaign_push_is_rejected_over_the_wire() {
    let spec = spec();
    let (_daemon, push_addr, http_addr) = start_daemon(spec);

    // A shard running a different campaign (other seed) connects.
    let other = CampaignSpec::heterogeneous(8, 40).with_probes(2);
    let (c, _) = run_partition(&other, 2, 0, 2);
    let mut client = PushClient::connect(&push_addr, "0/2").unwrap();
    let err = client.push(&c, true).unwrap_err();
    match err {
        PushError::Rejected { code, message } => {
            assert_eq!(code, "spec-mismatch");
            assert!(!message.is_empty());
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }

    // The daemon holds no state from the rejected push...
    let (_, body) = get(&http_addr, "/snapshot");
    assert!(body.contains("\"devices\": 0"), "{body}");
    // ...and the connection survives for a corrected retry.
    let spec = CampaignSpec::heterogeneous(7, 40).with_probes(2);
    let (c, _) = run_partition(&spec, 2, 0, 2);
    let ack = client.push(&c, true).unwrap();
    assert_eq!(ack.outcome, PushOutcome::Absorbed);
}

/// Telemetry rides the push: the daemon surfaces per-shard devices/sec,
/// queue depth, and phase split on /metrics, /status, and the
/// dashboard, and derives the campaign ETA.
#[test]
fn telemetry_surfaces_on_metrics_status_and_dashboard() {
    let spec = spec();
    let (_daemon, push_addr, http_addr) = start_daemon(spec.clone());

    let telemetry = wire::telemetry::ShardTelemetry {
        devices_per_sec: 321.5,
        workers: 2,
        per_worker_devices: vec![6, 4],
        queue_depth: 3,
        phase_self_ns: vec![("des".to_string(), 1_234_567), ("fold".to_string(), 89_012)],
    };

    // A mid-run push for the first half of the 0/1 slice...
    let mut c = fleet::Collector::new_range(&spec, 0);
    for i in 0..spec.devices / 2 {
        c.absorb(&fleet::run_device(&spec, i));
    }
    let mut client = PushClient::connect(&push_addr, "0/1").unwrap();
    client
        .push_with_telemetry(&c, false, Some(&telemetry))
        .unwrap();
    // ...then an advancing one after measurable time, so the daemon can
    // delta a rate.
    std::thread::sleep(std::time::Duration::from_millis(25));
    for i in spec.devices / 2..spec.devices - 5 {
        c.absorb(&fleet::run_device(&spec, i));
    }
    client
        .push_with_telemetry(&c, false, Some(&telemetry))
        .unwrap();

    let (_, metrics) = get(&http_addr, "/metrics");
    assert!(
        metrics.contains("collectord_shard_devices_per_sec{shard=\"0/1\"}"),
        "{metrics}"
    );
    assert!(metrics.contains("collectord_shard_queue_depth{shard=\"0/1\"} 3"));
    assert!(metrics.contains("collectord_shard_phase_self_ns{shard=\"0/1\",phase=\"des\"} 1234567"));
    assert!(metrics.contains("collectord_campaign_devices_per_sec"));
    assert!(metrics.contains("collectord_campaign_eta_seconds"));

    let (_, status_body) = get(&http_addr, "/status");
    let doc = obs::Json::parse(&status_body).unwrap();
    assert!(
        doc.get("devices_per_sec")
            .and_then(obs::Json::as_f64)
            .unwrap()
            > 0.0,
        "{status_body}"
    );
    assert!(
        doc.get("eta_secs").and_then(obs::Json::as_f64).unwrap() > 0.0,
        "{status_body}"
    );

    let (_, html) = get(&http_addr, "/");
    assert!(html.contains("dev/s"), "shard table gained the rate column");
    assert!(html.contains("ETA"), "{html}");
    // Queue depth from self-reported telemetry.
    assert!(html.contains("<th>queue</th>"), "{html}");
}

/// A client that connects and then goes silent mid-frame must not pin
/// an ingest thread forever: the configured read timeout fires, the
/// connection is dropped, and the `collectord_conn_timeout_total`
/// counter records it.
#[test]
fn stalled_ingest_connection_times_out_and_is_counted() {
    let spec = spec();
    let ingest = TcpListener::bind("127.0.0.1:0").unwrap();
    let http = TcpListener::bind("127.0.0.1:0").unwrap();
    let push_addr = ingest.local_addr().unwrap().to_string();
    let http_addr = http.local_addr().unwrap().to_string();
    let daemon = Daemon::new(spec).with_ingest_timeout(std::time::Duration::from_millis(100));
    let d = daemon.clone();
    std::thread::spawn(move || d.serve_ingest(ingest));
    let d = daemon.clone();
    std::thread::spawn(move || d.serve_http(http));

    // Half a length prefix, then silence: the daemon is now blocked in
    // the middle of a frame read until its timeout rescues the thread.
    let mut s = TcpStream::connect(&push_addr).unwrap();
    s.write_all(&[0x00, 0x00]).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let (_, metrics) = get(&http_addr, "/metrics");
        if metrics.contains("collectord_conn_timeout_total 1") {
            assert!(metrics.contains("# TYPE collectord_conn_timeout_total counter"));
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "timeout counter never appeared:\n{metrics}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}
