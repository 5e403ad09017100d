//! Quickstart: measure a 50 ms emulated path from a simulated Nexus 5,
//! first the naive way (1 s-interval ping, inflated by the energy-saving
//! mechanisms), then with AcuteMon (warm-up + background keep-awake
//! traffic). Prints both user-level views and the sniffer ground truth.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use acutemon::{AcuteMonApp, AcuteMonConfig};
use am_stats::Summary;
use measure::{Baseline, BaselineApp, RecordSet};
use phone::{PhoneNode, RuntimeKind};
use simcore::{SimDuration, SimTime};
use testbed::{addr, breakdowns, series, Testbed, TestbedConfig};

fn main() {
    const RTT_MS: u64 = 50;
    const K: u32 = 50;

    // --- Naive measurement: ping at its default 1 s interval. -----------
    let mut tb = Testbed::build(TestbedConfig::new(42, phone::nexus5(), RTT_MS));
    let ping = tb.install_app(
        Box::new(BaselineApp::new(
            Baseline::Ping,
            addr::SERVER,
            K,
            SimDuration::from_secs(1),
        )),
        RuntimeKind::Native,
    );
    tb.run_until(SimTime::from_secs(u64::from(K) + 5));
    let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
    let ping_du = phone_node.app::<BaselineApp>(ping).records.du();
    let ping_sum = Summary::of(&ping_du).expect("ping samples");

    // --- AcuteMon on the same path. --------------------------------------
    let mut tb2 = Testbed::build(TestbedConfig::new(43, phone::nexus5(), RTT_MS));
    let am = tb2.install_app(
        Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, K))),
        RuntimeKind::Native,
    );
    tb2.run_until(SimTime::from_secs(30));
    let index = tb2.capture_index();
    let phone_node2 = tb2.sim.node::<PhoneNode>(tb2.phone);
    let am_app = phone_node2.app::<AcuteMonApp>(am);
    let am_du = am_app.records.du();
    let am_sum = Summary::of(&am_du).expect("acutemon samples");
    let bds = breakdowns(&am_app.records, phone_node2.ledger(), index);
    let dn = series(&bds, |b| b.dn);
    let dn_sum = Summary::of(&dn).expect("dn samples");

    println!("Emulated path RTT:            {RTT_MS} ms");
    println!();
    println!(
        "ping (1 s interval):          {}  (overhead {:+.2} ms)",
        ping_sum.cell(),
        ping_sum.mean - RTT_MS as f64
    );
    println!(
        "AcuteMon (dpre=db=20 ms):     {}  (overhead {:+.2} ms)",
        am_sum.cell(),
        am_sum.mean - RTT_MS as f64
    );
    println!("sniffer ground truth (dn):    {}", dn_sum.cell());
    println!();
    println!(
        "AcuteMon spent {} warm-up + {} background packets, all dropped at \
         the gateway (TTL=1).",
        am_app.bt.warmup_sent, am_app.bt.background_sent
    );
}
