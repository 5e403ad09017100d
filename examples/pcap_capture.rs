//! Export the sniffer capture of an AcuteMon run as a standard pcap file —
//! open it in Wireshark and watch the warm-up, background keep-awakes,
//! beacons, and probe exchanges, with real IPv4/TCP/UDP bytes and
//! checksums.
//!
//! ```sh
//! cargo run --release --example pcap_capture [OUT.pcap]
//! ```

use acutemon::{AcuteMonApp, AcuteMonConfig};
use simcore::SimTime;
use testbed::{addr, Testbed, TestbedConfig};
use wire::FrameKind;

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "acutemon_capture.pcap".to_string());

    let cfg = TestbedConfig::new(3, phone::nexus5(), 50);
    let sniffers = cfg.sniffers;
    let mut tb = Testbed::build(cfg);
    tb.install_app(
        Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, 20))),
        phone::RuntimeKind::Native,
    );
    tb.run_until(SimTime::from_secs(5));

    // What any of the sniffers caught (the multi-sniffer trick of §2.2),
    // each frame once.
    let capture = tb.capture_index();
    let mut beacons = 0;
    let mut data = 0;
    let mut nulls = 0;
    for c in capture.captures() {
        match c.frame.kind {
            FrameKind::Beacon { .. } => beacons += 1,
            FrameKind::Data { .. } => data += 1,
            FrameKind::NullData { .. } => nulls += 1,
            _ => {}
        }
    }
    let pcap = capture.to_pcap();
    pcap.write_to_file(&out).expect("write pcap");

    println!(
        "{} frames caught by {sniffers} sniffers:",
        capture.captures().len()
    );
    println!("  {beacons} beacons, {data} data frames, {nulls} null-data frames");
    println!("wrote {} records to {out}", pcap.count());
    println!("(open with: wireshark {out}  — data frames carry real IPv4 bytes)");
}
