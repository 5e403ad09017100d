//! The daemon's own counts on `/metrics`, driven through
//! `Daemon::ingest_frame` and `Daemon::metrics_text` without a socket.

use collectord::protocol::push_doc;
use collectord::Daemon;
use fleet::{run_partition, CampaignSpec};
use obs::Json;

/// The payload of a final push of a campaign's whole device range.
fn final_push(seed: u64) -> Vec<u8> {
    let spec = CampaignSpec::heterogeneous(seed, 8).with_probes(1);
    let (whole, _) = run_partition(&spec, 1, 0, 1);
    push_doc("0/1", true, &whole.state_json())
        .to_string()
        .into()
}

/// A final push of the whole range, its re-send, a push from another
/// campaign and a payload that is not JSON move exactly these lines.
#[test]
fn metrics_count_pushes_duplicates_and_each_rejection() {
    let daemon = Daemon::new(CampaignSpec::heterogeneous(7, 8).with_probes(1));
    let push = final_push(7);
    for (payload, answer) in [
        (&push[..], "absorbed"),
        (&push, "duplicate"),
        (&final_push(8), "spec-mismatch"),
        (b"not json", "bad-frame"),
    ] {
        // An ack's status, or a rejection's code.
        let reply = daemon.ingest_frame(payload);
        let got = reply.get("status").or_else(|| reply.get("code"));
        assert_eq!(got.and_then(Json::as_str), Some(answer));
    }
    assert!(daemon.complete());
    let metrics = daemon.metrics_text();
    for line in [
        "collectord_ingest_pushes_total 4",
        "collectord_ingest_duplicates_total 1",
        "collectord_ingest_errors_total 2",
        "collectord_ingest_rejected_spec_mismatch_total 1",
        "collectord_ingest_rejected_bad_frame_total 1",
        "collectord_ingest_batch_ms_count 2",
        "collectord_devices_expected 8",
        "collectord_devices_absorbed 8",
        "collectord_devices_view 8",
        "collectord_campaign_complete 1",
    ] {
        let found = metrics.lines().any(|l| l == line);
        assert!(found, "missing `{line}` in\n{metrics}");
    }
    // Each rejection is counted under its own code, and nothing else is.
    let rejected = metrics
        .lines()
        .filter(|l| l.starts_with("collectord_ingest_rejected_"));
    assert_eq!(rejected.count(), 2, "{metrics}");
}
