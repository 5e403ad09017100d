//! Integration tests for the capture/analysis pipeline: the merged
//! sniffer capture, pcap export validity, and cross-layer timestamp
//! consistency.

use acutemon::{AcuteMonApp, AcuteMonConfig};
use phone::PhoneNode;
use simcore::SimTime;
use testbed::{addr, Testbed, TestbedConfig};
use wire::{codec, FrameKind};

fn run_testbed() -> Testbed {
    let mut tb = Testbed::build(TestbedConfig::new(5, phone::nexus5(), 40));
    tb.install_app(
        Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, 15))),
        phone::RuntimeKind::Native,
    );
    tb.run_until(SimTime::from_secs(5));
    tb
}

/// The three lossy sniffers' capture holds every frame exactly once, in
/// on-air order.
#[test]
fn multi_sniffer_merge_recovers_losses() {
    let tb = run_testbed();
    let merged = tb.capture_index().captures();
    // No duplicate frame ids.
    let mut ids: Vec<u64> = merged.iter().map(|c| c.frame.id).collect();
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "duplicate frames in merge");
    // Time-ordered.
    for w in merged.windows(2) {
        assert!(w[0].at <= w[1].at);
    }
}

/// Every data frame in the capture round-trips through the byte-level
/// codec: the pcap on disk carries valid IPv4 with correct checksums.
#[test]
fn pcap_bytes_are_valid_ipv4() {
    let tb = run_testbed();
    let capture = tb.capture_index();
    let mut checked = 0;
    for c in capture.captures() {
        if let FrameKind::Data { packet, .. } = &c.frame.kind {
            let bytes = codec::encode(packet);
            let decoded = codec::decode(&bytes).expect("capture decodes");
            assert_eq!(decoded.src, packet.src);
            assert_eq!(decoded.dst, packet.dst);
            assert_eq!(decoded.l4, packet.l4);
            checked += 1;
        }
    }
    assert!(checked > 20, "only {checked} data frames checked");

    // And the full pcap writes and starts with the classic magic.
    let w = capture.to_pcap();
    let bytes = w.to_bytes();
    assert_eq!(&bytes[0..4], &0xa1b2_c3d4u32.to_le_bytes());
    assert_eq!(w.count(), capture.captures().len());
}

/// Cross-layer timestamp sanity: for every completed probe,
/// tou ≤ tok ≤ tov ≤ tbus ≤ ton and tin ≤ tiv ≤ trxf ≤ tik ≤ tiu, and
/// the layer RTT chain is ordered du ≥ dk ≥ dv ≥ dn.
#[test]
fn timestamp_chain_is_ordered() {
    let tb = run_testbed();
    let index = tb.capture_index();
    let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
    let am = phone_node.app::<AcuteMonApp>(0);
    let mut checked = 0;
    for rec in &am.records {
        let Some(resp) = rec.resp_id else { continue };
        let req = phone_node.ledger().get(rec.req_id).expect("req stamps");
        let rsp = phone_node.ledger().get(resp).expect("resp stamps");
        let ton = index.air_time(rec.req_id).expect("ton");
        let tin = index.air_time(resp).expect("tin");
        assert!(req.tou <= req.tok && req.tok <= req.tov);
        assert!(req.tov <= req.tbus);
        assert!(req.tbus.expect("tbus") <= ton);
        assert!(tin <= rsp.tiv.expect("tiv"));
        assert!(rsp.tiv <= rsp.trxf && rsp.trxf <= rsp.tik && rsp.tik <= rsp.tiu);

        let du = rec.du_ms().expect("du");
        let dk = phone_node.ledger().dk_ms(rec.req_id, resp).expect("dk");
        let dv = phone_node.ledger().dv_ms(rec.req_id, resp).expect("dv");
        let dn = index.dn_ms(rec.req_id, resp).expect("dn");
        assert!(
            du >= dk && dk >= dv && dv >= dn,
            "du {du} dk {dk} dv {dv} dn {dn}"
        );
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} probes checked");
}

/// PSM signatures appear in captures exactly when expected: none during
/// an AcuteMon run, some afterwards once the keep-awake traffic stops.
#[test]
fn psm_signatures_only_after_measurement_ends() {
    let mut tb = Testbed::build(TestbedConfig::new(6, phone::samsung_grand(), 30));
    let app = tb.install_app(
        Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, 15))),
        phone::RuntimeKind::Native,
    );
    // Run long past the measurement so the phone re-dozes.
    tb.run_until(SimTime::from_secs(8));
    let index = tb.capture_index();
    let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
    let am = phone_node.app::<AcuteMonApp>(app);
    let start = am.records.first().unwrap().tou;
    let end = am.finished_at().expect("finished");
    assert_eq!(index.ps_polls_between(start, end), 0);
    // After the run the Grand (Tip ≈ 45 ms) dozes again: its PM=1
    // announcement must be on the air.
    let null_after = index
        .captures()
        .iter()
        .filter(|c| c.at > end)
        .any(|c| matches!(c.frame.kind, FrameKind::NullData { pm: true }));
    assert!(null_after, "no doze announcement after the measurement");
}
