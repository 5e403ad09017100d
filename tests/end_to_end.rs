//! Cross-crate integration tests: the paper's headline claims, verified
//! end-to-end through the full testbed (phone pipeline + 802.11 + wired
//! emulation + sniffers).

use acutemon::{AcuteMonApp, AcuteMonConfig, Calibration};
use am_stats::{median, Ecdf};
use measure::{PingApp, PingConfig, RecordSet};
use phone::PhoneNode;
use simcore::{SimDuration, SimTime};
use testbed::{addr, breakdowns, series, Testbed, TestbedConfig};
use wire::{FrameKind, PacketTag};

/// §1's headline: "the overall median delay overheads can be kept within
/// 3 ms, regardless of the actual network delay" — checked for every
/// phone at a short and a long emulated RTT.
#[test]
fn headline_median_overhead_within_3ms_for_all_phones() {
    for (pi, profile) in phone::all_phones().into_iter().enumerate() {
        for (ri, rtt) in [20u64, 135].into_iter().enumerate() {
            let name = profile.name;
            let mut tb = Testbed::build(TestbedConfig::new(
                900 + (pi as u64) * 10 + ri as u64,
                profile.clone(),
                rtt,
            ));
            let app = tb.install_app(
                Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, 40))),
                phone::RuntimeKind::Native,
            );
            tb.run_until(SimTime::from_secs(30));
            let index = tb.capture_index();
            let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
            let am = phone_node.app::<AcuteMonApp>(app);
            assert!(
                (am.records.completion() - 1.0).abs() < 1e-12,
                "{name} at {rtt}ms lost probes"
            );
            let bds = breakdowns(&am.records, phone_node.ledger(), &index);
            let total = series(&bds, |b| b.total());
            let med = median(&total).expect("overhead samples");
            assert!(
                med < 3.5,
                "{name} at {rtt}ms: median total overhead {med:.2} ms"
            );
        }
    }
}

/// §3's diagnosis, end to end: the same phone, same path, same tool —
/// only the probing interval changes — and the RTT inflates by the bus
/// wake costs. Disabling the bus sleep feature (the paper's driver patch)
/// removes the inflation again.
#[test]
fn sdio_sleep_is_the_internal_culprit() {
    let run = |bus_sleep: bool, interval_ms: u64| -> f64 {
        let mut cfg = TestbedConfig::new(31, phone::nexus5(), 60);
        cfg.bus_sleep = bus_sleep;
        let mut tb = Testbed::build(cfg);
        let app = tb.install_app(
            Box::new(PingApp::new(PingConfig::new(
                addr::SERVER,
                20,
                SimDuration::from_millis(interval_ms),
            ))),
            phone::RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(30));
        let du = tb
            .sim
            .node::<PhoneNode>(tb.phone)
            .app::<PingApp>(app)
            .records
            .du();
        median(&du).expect("du")
    };
    let fast = run(true, 10);
    let slow = run(true, 1000);
    let slow_patched = run(false, 1000);
    assert!(slow > fast + 15.0, "slow {slow:.1} vs fast {fast:.1}");
    assert!(
        slow_patched < fast + 3.0,
        "patched {slow_patched:.1} vs fast {fast:.1}"
    );
}

/// §3.2.2 end to end: a phone whose Tip is *below* the path RTT gets its
/// responses buffered at the AP until a beacon — visible as network-level
/// (dn) inflation bounded by one beacon interval per §3.2.2's
/// `IB × (L+1)` bound with L = 0.
#[test]
fn psm_buffers_responses_at_the_ap() {
    let mut tb = Testbed::build(TestbedConfig::new(32, phone::nexus4(), 60));
    let app = tb.install_app(
        Box::new(PingApp::new(PingConfig::new(
            addr::SERVER,
            20,
            SimDuration::from_secs(1),
        ))),
        phone::RuntimeKind::Native,
    );
    tb.run_until(SimTime::from_secs(30));
    let index = tb.capture_index();
    let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
    let ping = phone_node.app::<PingApp>(app);
    let bds = breakdowns(&ping.records, phone_node.ledger(), &index);
    let dn = series(&bds, |b| b.dn);
    let med = median(&dn).expect("dn");
    // Inflated well beyond the emulated 60 ms...
    assert!(med > 80.0, "dn median {med:.1}");
    // ...but bounded: the §3.2.2 bound is IB×(L+1) per attended beacon;
    // the model's beacon-miss probability can add a couple more cycles.
    let max = dn.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(max < 60.0 + 4.0 * 102.4 + 20.0, "dn max {max:.1}");
    // And the capture shows actual PSM machinery at work.
    assert!(
        index.ps_polls_between(SimTime::ZERO, tb.sim.now()) > 0,
        "expected PS-Polls in the capture"
    );
}

/// §4.2.2's calibration claim, executed: learn the stable AcuteMon
/// residual on one path, apply it on another, and recover the true RTT to
/// within a millisecond-scale error.
#[test]
fn calibration_transfers_across_paths() {
    let measure = |rtt: u64, seed: u64| -> Vec<f64> {
        let mut tb = Testbed::build(TestbedConfig::new(seed, phone::nexus5(), rtt));
        let app = tb.install_app(
            Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, 40))),
            phone::RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(30));
        tb.sim
            .node::<PhoneNode>(tb.phone)
            .app::<AcuteMonApp>(app)
            .records
            .du()
    };
    // Calibrate on a known 20 ms path.
    let cal = Calibration::from_run(&measure(20, 41), 20.0).expect("calibration");
    assert!(cal.overhead_ms > 0.5 && cal.overhead_ms < 4.0, "{cal:?}");
    // Apply on an 85 ms path.
    let du = measure(85, 42);
    let corrected = median(&du.iter().map(|d| cal.apply(*d)).collect::<Vec<_>>()).unwrap();
    assert!(
        (corrected - 85.0).abs() < 1.5,
        "corrected median {corrected:.2} vs 85"
    );
}

/// The tool-comparison ordering of Fig. 8 holds end to end, and the
/// cross-traffic CDF dominates the clean one everywhere that matters.
#[test]
fn fig8_ordering_end_to_end() {
    use testbed::experiments::fig8::{run_tool, Tool};
    let am = run_tool(Tool::AcuteMon, false, 20, 51);
    let hp = run_tool(Tool::Httping, false, 20, 52);
    let jp = run_tool(Tool::JavaPing, false, 20, 53);
    let m = |c: &testbed::experiments::fig8::Curve| Ecdf::of(&c.samples).unwrap().median();
    assert!(
        m(&am) + 8.0 < m(&hp),
        "AcuteMon {} vs httping {}",
        m(&am),
        m(&hp)
    );
    assert!(
        m(&hp) <= m(&jp) + 2.0,
        "httping {} vs javaping {}",
        m(&hp),
        m(&jp)
    );
}

/// The self-training app works through the full WiFi testbed too: it
/// recovers Tis from user-level probing over the air and then measures
/// cleanly with the derived timing.
#[test]
fn trained_acutemon_full_testbed() {
    use acutemon::{TrainedAcuteMonApp, TrainedPhase};
    let mut tb = Testbed::build(TestbedConfig::new(71, phone::nexus5(), 25));
    let app = tb.install_app(
        Box::new(TrainedAcuteMonApp::new(AcuteMonConfig::new(
            addr::SERVER,
            20,
        ))),
        phone::RuntimeKind::Native,
    );
    tb.run_until(SimTime::from_secs(120));
    let t = tb
        .sim
        .node::<PhoneNode>(tb.phone)
        .app::<TrainedAcuteMonApp>(app);
    assert_eq!(t.phase(), TrainedPhase::Measuring);
    let est = t.estimate.expect("wake step found over the air");
    assert!((40.0..=60.0).contains(&est.tis_ms), "tis {}", est.tis_ms);
    let m = t.measurement().expect("measured");
    assert!((m.records.completion() - 1.0).abs() < 1e-12);
    let med = median(&m.records.du()).unwrap();
    assert!(med < 25.0 + 5.0, "median {med}");
}

/// Multi-target measurement through the full testbed: the measurement
/// server and the load server double as two targets at the same emulated
/// distance; both come back clean under one background thread.
#[test]
fn multi_target_full_testbed() {
    use acutemon::{AcuteMonApp, AcuteMonConfig};
    let mut tb = Testbed::build(TestbedConfig::new(72, phone::nexus4(), 40));
    let app = tb.install_app(
        Box::new(AcuteMonApp::new(AcuteMonConfig::multi(
            vec![addr::SERVER, addr::LOAD_SERVER],
            15,
        ))),
        phone::RuntimeKind::Native,
    );
    tb.run_until(SimTime::from_secs(20));
    let index = tb.capture_index();
    let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
    let m = phone_node.app::<AcuteMonApp>(app);
    assert!(m.finished_at().is_some());
    // The measurement server sits behind the 40 ms netem link; the load
    // server hangs straight off the switch.
    let far = median(&m.records_for(0).du()).unwrap();
    let near = median(&m.records_for(1).du()).unwrap();
    assert!((far - 42.0).abs() < 4.0, "far {far}");
    assert!(near < 6.0, "near {near}");
    // No PSM activity during the session despite Nexus 4's 40 ms Tip.
    let start = m.records_for(0)[0].tou;
    let end = m.finished_at().unwrap();
    assert_eq!(index.ps_polls_between(start, end), 0);
}

/// Determinism across the whole stack: same seed → identical results,
/// different seed → different micro-timings.
#[test]
fn whole_testbed_is_deterministic() {
    let run = |seed: u64| -> Vec<f64> {
        let mut tb = Testbed::build(TestbedConfig::new(seed, phone::samsung_grand(), 50));
        let app = tb.install_app(
            Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, 15))),
            phone::RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(10));
        tb.sim
            .node::<PhoneNode>(tb.phone)
            .app::<AcuteMonApp>(app)
            .records
            .du()
    };
    assert_eq!(run(77), run(77));
    assert_ne!(run(77), run(78));
}

/// Fig. 6's choreography as the `timeline` example prints it, read from
/// the records the paper used: the warm-up alone pays the SDIO wake
/// (driver-hook ledger), its frame is on the air, the gateway drops every
/// TTL-1 keep-awake packet, and after the last probe the phone announces
/// its doze with a PM=1 null-data frame (sniffer captures).
#[test]
fn timeline_facts_come_from_ledger_and_sniffers() {
    let mut tb = Testbed::build(TestbedConfig::new(12, phone::samsung_grand(), 40));
    let app = tb.install_app(
        Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, 8))),
        phone::RuntimeKind::Native,
    );
    tb.run_until(SimTime::from_secs(3));
    let index = tb.capture_index();
    let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
    let am = phone_node.app::<AcuteMonApp>(app);

    let dvsend = |id: u64| phone_node.ledger().get(id).and_then(|s| s.dvsend_ms());
    let warmup_id = index
        .captures()
        .iter()
        .find_map(|c| match c.frame.kind {
            FrameKind::Data { packet, .. } if packet.tag == PacketTag::WarmUp => Some(packet.id),
            _ => None,
        })
        .expect("the warm-up frame is captured");
    let wake = dvsend(warmup_id).unwrap();
    assert!(wake > 1.0, "warm-up dvsend {wake:.3} ms: no bus wake");
    for rec in &am.records {
        let d = dvsend(rec.req_id).unwrap();
        assert!(d < 1.0, "probe {} dvsend {d:.3} ms", rec.probe);
    }

    assert_eq!(
        tb.ap_node().stats.dropped_ttl,
        am.bt.warmup_sent + am.bt.background_sent
    );

    let last_null = index
        .captures()
        .iter()
        .rev()
        .find(|c| {
            c.frame.src == tb.sta_node().mac && matches!(c.frame.kind, FrameKind::NullData { .. })
        })
        .expect("the phone sent a null-data frame");
    assert_eq!(last_null.frame.kind, FrameKind::NullData { pm: true });
    let last_tiu = am
        .records
        .last()
        .and_then(|r| r.tiu)
        .expect("last probe done");
    assert!(
        last_null.at > last_tiu,
        "doze announced before the last probe returned"
    );
}
