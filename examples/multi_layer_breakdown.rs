//! The §3.1 root-cause story, per probe: where does each millisecond go?
//!
//! Runs ping on a Nexus 5 over a 60 ms path at a 1 s interval and prints
//! the per-layer timestamps (Fig. 1's tou/tok/tov/ton/tin/tik/tiu) and the
//! decomposed overheads for each probe — making the SDIO TX wake
//! (~10 ms) and RX wake (~12 ms) visible packet by packet.
//!
//! ```sh
//! cargo run --release --example multi_layer_breakdown
//! ```

use measure::{Baseline, BaselineApp};
use phone::PhoneNode;
use simcore::{SimDuration, SimTime};
use testbed::{addr, breakdowns, Testbed, TestbedConfig};

fn main() {
    const K: u32 = 10;
    let mut tb = Testbed::build(TestbedConfig::new(7, phone::nexus5(), 60));
    let app = tb.install_app(
        Box::new(BaselineApp::new(
            Baseline::Ping,
            addr::SERVER,
            K,
            SimDuration::from_secs(1),
        )),
        phone::RuntimeKind::Native,
    );
    tb.run_until(SimTime::from_secs(u64::from(K) + 5));

    let index = tb.capture_index();
    let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
    let ping = phone_node.app::<BaselineApp>(app);
    let bds = breakdowns(&ping.records, phone_node.ledger(), index);

    println!("Nexus 5, 60 ms emulated path, ping at 1 s interval");
    println!("(Tis = 50 ms: every probe pays the TX bus wake, and the reply");
    println!(" arrives after the bus re-demotes, paying the RX wake too)\n");
    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "probe", "du", "dk", "dv", "dn", "Δdu−k", "Δdk−n", "dvsend"
    );
    for (b, rec) in bds.iter().zip(&ping.records) {
        let dvsend = phone_node
            .ledger()
            .get(rec.req_id)
            .and_then(|s| s.dvsend_ms());
        let f = |x: Option<f64>| {
            x.map(|v| format!("{v:9.2}"))
                .unwrap_or_else(|| "        -".into())
        };
        println!(
            "{:>5} {} {} {} {} {} {} {}",
            b.probe,
            f(b.du),
            f(b.dk),
            f(b.dv),
            f(b.dn),
            f(b.du_k()),
            f(b.dk_n()),
            f(dvsend),
        );
    }

    // And the raw timestamps of one probe, in microseconds from tou.
    if let Some(rec) = ping.records.iter().find(|r| r.resp_id.is_some()) {
        let req = phone_node.ledger().get(rec.req_id).expect("req stamps");
        let resp = phone_node
            .ledger()
            .get(rec.resp_id.expect("resp"))
            .expect("resp stamps");
        let t0 = req.tou.expect("tou");
        let rel = |t: Option<SimTime>| {
            t.map(|t| format!("{:+10.3} ms", t.saturating_since(t0).as_ms_f64()))
                .unwrap_or_else(|| "         -".into())
        };
        println!(
            "\nTimestamps of probe {} relative to tou (Fig. 1):",
            rec.probe
        );
        println!("  tou  (app send)          {}", rel(req.tou));
        println!("  tok  (kernel/bpf)        {}", rel(req.tok));
        println!("  tov  (dhd_start_xmit)    {}", rel(req.tov));
        println!("  tbus (dhdsdio_txpkt)     {}", rel(req.tbus));
        println!(
            "  ton  (on air, sniffer)   {}",
            rel(index.air_time(rec.req_id))
        );
        println!(
            "  tin  (response on air)   {}",
            rel(index.air_time(rec.resp_id.unwrap()))
        );
        println!("  tiv  (dhdsdio_isr)       {}", rel(resp.tiv));
        println!("  trxf (dhd_rxf_enqueue)   {}", rel(resp.trxf));
        println!("  tik  (netif_rx_ni)       {}", rel(resp.tik));
        println!("  tiu  (app receive)       {}", rel(resp.tiu));
    }
}
