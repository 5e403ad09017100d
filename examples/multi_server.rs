//! MopEye-style multi-server measurement: one AcuteMon session, one
//! shared background thread, several target servers measured round-robin
//! — the crowdsourcing scenario the paper's introduction motivates.
//!
//! ```sh
//! cargo run --release --example multi_server
//! ```

use acutemon::{AcuteMonApp, AcuteMonConfig};
use am_stats::Summary;
use measure::RecordSet;
use netem::{LinkNode, LinkParams, ServerConfig, ServerNode, SwitchNode};
use phone::{PhoneNode, RuntimeKind};
use simcore::{Sim, SimDuration, SimTime};
use wire::{Ip, Msg};

fn main() {
    // Three "CDN replicas" at different distances.
    let targets = [
        (Ip::new(10, 0, 0, 1), 15u64, "edge pop"),
        (Ip::new(10, 0, 0, 2), 45, "regional"),
        (Ip::new(10, 0, 0, 3), 110, "cross-country"),
    ];

    let mut sim: Sim<Msg> = Sim::new(77);
    let sw = sim.add_node(Box::new(SwitchNode::new(SimDuration::from_micros(20))));
    for (i, (ip, rtt, _)) in targets.iter().enumerate() {
        let server = sim.add_node(Box::new(ServerNode::new(
            50 + i as u32,
            ServerConfig::standard(*ip),
        )));
        let link = sim.add_node(Box::new(LinkNode::new(LinkParams::delay_ms(rtt / 2))));
        sim.node_mut::<LinkNode>(link).connect(sw, server);
        sim.node_mut::<SwitchNode>(sw).add_route(*ip, link);
    }
    let mut ph = PhoneNode::new(1, phone::nexus5(), phone::wlan_ip(100), sw);
    let app = ph.install_app(
        Box::new(AcuteMonApp::new(AcuteMonConfig::multi(
            targets.iter().map(|t| t.0).collect(),
            30,
        ))),
        RuntimeKind::Native,
    );
    let phone_id = sim.add_node(Box::new(ph));
    sim.node_mut::<SwitchNode>(sw)
        .add_route(phone::wlan_ip(100), phone_id);
    sim.run_until(SimTime::from_secs(30));

    let m = sim.node::<PhoneNode>(phone_id).app::<AcuteMonApp>(app);
    println!("One phone, one background thread, three servers:\n");
    for (i, (ip, rtt, name)) in targets.iter().enumerate() {
        let recs = m.records_for(i);
        let du = recs.du();
        let s = Summary::of(&du).expect("samples");
        println!(
            "  {name:<14} {ip:<10}  emulated {rtt:>3} ms  measured {}  ({}/{} probes)",
            s.cell(),
            du.len(),
            recs.len()
        );
    }
    let dur = m.finished_at().expect("finished").as_ms_f64();
    println!(
        "\nsession: {:.0} ms, {} warm-up + {} background packets total",
        dur, m.bt.warmup_sent, m.bt.background_sent
    );
    println!("(the keep-awake budget is paid once, not once per server)");
}
