//! The paper's §4 cellular extension, demonstrated: RRC state transitions
//! (idle → connected promotions, DRX, paging) inflate sparse measurements
//! on LTE and 3G exactly like SDIO/PSM do on WiFi — and AcuteMon's
//! warm-up + background scheme removes the inflation the same way.
//!
//! ```sh
//! cargo run --release --example cellular_rrc
//! ```

use acutemon::{AcuteMonApp, AcuteMonConfig};
use am_stats::Summary;
use cellular::CellNode;
use measure::{Baseline, BaselineApp, RecordSet};
use simcore::{SimDuration, SimTime};
use testbed::{cell_addr, CellTestbed, CellTestbedConfig};

fn main() {
    const CORE_RTT_MS: u64 = 40;
    for (rat, mk) in [
        (
            "LTE",
            CellTestbedConfig::lte as fn(u64, phone::PhoneProfile, u64) -> CellTestbedConfig,
        ),
        ("UMTS/3G", CellTestbedConfig::umts),
    ] {
        println!("== {rat}, {CORE_RTT_MS} ms core path ==");

        // Sparse ping: every 20 s, past the RRC idle timer.
        let mut tb = CellTestbed::build(mk(1, phone::nexus5(), CORE_RTT_MS));
        let app = tb.install_app(
            Box::new(BaselineApp::new(
                Baseline::Ping,
                cell_addr::SERVER,
                8,
                SimDuration::from_secs(20),
            )),
            phone::RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(200));
        let du = tb.app::<BaselineApp>(app).records.du();
        let cell = tb.sim.node::<CellNode>(tb.cell);
        println!(
            "  ping @20s:  {}   ({} RRC promotions paid)",
            Summary::of(&du).unwrap().cell(),
            cell.rrc.stats.ul_wakes
        );

        // Dense ping: every 1 s — stays connected, only DRX shows.
        let mut tb = CellTestbed::build(mk(2, phone::nexus5(), CORE_RTT_MS));
        let app = tb.install_app(
            Box::new(BaselineApp::new(
                Baseline::Ping,
                cell_addr::SERVER,
                30,
                SimDuration::from_secs(1),
            )),
            phone::RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(60));
        let du = tb.app::<BaselineApp>(app).records.du();
        println!("  ping @1s:   {}", Summary::of(&du).unwrap().cell());

        // AcuteMon: the background traffic pins the bearer in the
        // connected tier; every probe is clean.
        let mut tb = CellTestbed::build(mk(3, phone::nexus5(), CORE_RTT_MS));
        let app = tb.install_app(
            Box::new(AcuteMonApp::new(AcuteMonConfig::new(cell_addr::SERVER, 30))),
            phone::RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(60));
        let am = tb.app::<AcuteMonApp>(app);
        let du = am.records.du();
        let cell = tb.sim.node::<CellNode>(tb.cell);
        println!(
            "  AcuteMon:   {}   ({} promotions — the warm-up only)",
            Summary::of(&du).unwrap().cell(),
            cell.rrc.stats.ul_wakes
        );
        println!();
    }
    println!("(On cellular, pick dpre ≳ the promotion delay — ~150 ms on LTE,");
    println!(" ~2 s on 3G — so the first probe also rides a promoted bearer.)");
}
