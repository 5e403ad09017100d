//! Fig. 6 as an executable document: run AcuteMon and print the
//! choreography — warm-up, SDIO wake, background cadence, PSM doze —
//! from the records the paper itself reads: the phone's driver-hook
//! ledger (Table 3), the sniffer capture (Table 4's PM bits) and the
//! tool's own probe records.
//!
//! ```sh
//! cargo run --release --example timeline
//! ```

use acutemon::{AcuteMonApp, AcuteMonConfig};
use simcore::SimTime;
use testbed::{addr, Testbed, TestbedConfig};
use wire::{FrameKind, PacketTag};

fn main() {
    let mut tb = Testbed::build(TestbedConfig::new(12, phone::samsung_grand(), 40));
    let app = tb.install_app(
        Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, 8))),
        phone::RuntimeKind::Native,
    );
    // Run past the measurement so the post-run doze shows too.
    tb.run_until(SimTime::from_secs(3));

    let phone_node = tb.phone_node();
    let ledger = phone_node.ledger();
    let am = phone_node.app::<AcuteMonApp>(app);
    println!(
        "Samsung Grand (Tis 50 ms, Tip ~45 ms), 40 ms path, K=8 probes, \
         dpre=db=20 ms\n"
    );

    let mut events: Vec<(SimTime, String)> = Vec::new();
    // The air: the warm-up and the first background frames, and every
    // PM bit the phone announced in a null-data frame.
    let index = tb.capture_index();
    let phone_mac = tb.sta_node().mac;
    let mut bg_seen = 0u32;
    for c in index.captures() {
        match &c.frame.kind {
            FrameKind::Data { packet, .. } if packet.tag == PacketTag::WarmUp => {
                events.push((c.at, "[air] warm-up packet (TTL 1)".into()));
                // The driver hooks: the warm-up found the bus asleep.
                let stamps = ledger.get(packet.id).expect("warm-up in the ledger");
                events.push((
                    stamps.tov.expect("driver entry"),
                    format!(
                        "[sdio] warm-up wakes the bus: driver TX {:.3} ms (tbus - tov)",
                        stamps.dvsend_ms().expect("on the bus")
                    ),
                ));
            }
            FrameKind::Data { packet, .. } if packet.tag == PacketTag::Background => {
                bg_seen += 1;
                if bg_seen <= 3 {
                    events.push((c.at, format!("[air] background #{bg_seen}")));
                }
            }
            FrameKind::NullData { pm } if c.frame.src == phone_mac => {
                let what = if *pm { "PM=1, the phone dozes" } else { "PM=0" };
                events.push((c.at, format!("[air] phone null-data {what}")));
            }
            _ => {}
        }
    }
    // The tool: each probe, with its request's driver TX for contrast.
    for r in &am.records {
        let dvsend = ledger.get(r.req_id).and_then(|s| s.dvsend_ms());
        events.push((
            r.tou,
            format!(
                "[mt] probe {} sent, driver TX {:.3} ms",
                r.probe,
                dvsend.expect("probe on the bus")
            ),
        ));
        if let Some(tiu) = r.tiu {
            events.push((
                tiu,
                format!(
                    "[mt] probe {} done, du = {:.2} ms",
                    r.probe,
                    r.du_ms().expect("completed")
                ),
            ));
        }
    }
    events.sort_by_key(|(t, _)| *t);
    for (t, line) in &events {
        println!("{:>10.3} ms  {}", t.as_ms_f64(), line);
    }
    println!(
        "\n({} more background packets omitted; total {} + {} warm-up)",
        am.bt.background_sent.saturating_sub(3),
        am.bt.background_sent,
        am.bt.warmup_sent
    );
    println!(
        "(the gateway dropped {} TTL-expired packets)",
        tb.ap_node().stats.dropped_ttl
    );
}
