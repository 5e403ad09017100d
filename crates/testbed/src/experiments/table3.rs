//! **Table 3**: driver hook latencies `dvsend` (`dhd_start_xmit` →
//! `dhdsdio_txpkt`) and `dvrecv` (`dhdsdio_isr` → `dhd_rxf_enqueue`) on
//! the Nexus 5, with the SDIO bus-sleep feature enabled vs disabled, at
//! 10 ms and 1 s probe intervals. The paper gets these by rebuilding the
//! kernel with timestamping patches; here the phone ledger records the
//! same two hook pairs.

use am_stats::Table;
use measure::{Baseline, BaselineApp};
use obs::ToJson;
use phone::{PhoneNode, RuntimeKind};
use simcore::{SimDuration, SimTime};

use crate::{addr, Testbed, TestbedConfig};

/// One row of Table 3.
#[derive(Debug, Clone, ToJson)]
pub struct Table3Row {
    /// `"dvsend"` or `"dvrecv"`.
    pub kind: &'static str,
    /// Bus sleep enabled?
    pub bus_sleep: bool,
    /// Probe interval in ms.
    pub interval_ms: u64,
    /// Minimum (ms).
    pub min: f64,
    /// Mean (ms).
    pub mean: f64,
    /// Maximum (ms).
    pub max: f64,
}

/// The Table 3 result.
#[derive(Debug, ToJson)]
pub struct Table3 {
    /// All rows in the paper's order.
    pub rows: Vec<Table3Row>,
}

fn stats(samples: &[f64]) -> (f64, f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    (min, mean, max)
}

/// Run the Table 3 experiment: `k` ICMP packets per configuration.
pub fn run(k: u32, seed: u64) -> Table3 {
    let mut rows = Vec::new();
    // Paper row order: dvsend enabled 10ms/1s, disabled 10ms/1s; then
    // dvrecv likewise.
    let mut collected: Vec<(bool, u64, Vec<f64>, Vec<f64>)> = Vec::new();
    for (si, &sleep) in [true, false].iter().enumerate() {
        for (ii, &interval) in [10u64, 1000].iter().enumerate() {
            // 60 ms emulated path: at the 1 s interval the reply arrives
            // after the 50 ms demotion, so the RX wake is exercised too.
            let mut cfg =
                TestbedConfig::new(seed ^ ((si as u64) << 4 | ii as u64), phone::nexus5(), 60);
            cfg.bus_sleep = sleep;
            let mut tb = Testbed::build(cfg);
            tb.install_app(
                Box::new(BaselineApp::new(
                    Baseline::Ping,
                    addr::SERVER,
                    k,
                    SimDuration::from_millis(interval),
                )),
                RuntimeKind::Native,
            );
            let horizon = SimTime::ZERO
                + SimDuration::from_millis(interval) * u64::from(k)
                + SimDuration::from_secs(5);
            tb.run_until(horizon);
            let ledger = tb.sim.node::<PhoneNode>(tb.phone).ledger();
            collected.push((
                sleep,
                interval,
                ledger.dvsend_samples(),
                ledger.dvrecv_samples(),
            ));
        }
    }
    for (sleep, interval, dvsend, _) in &collected {
        let (min, mean, max) = stats(dvsend);
        rows.push(Table3Row {
            kind: "dvsend",
            bus_sleep: *sleep,
            interval_ms: *interval,
            min,
            mean,
            max,
        });
    }
    for (sleep, interval, _, dvrecv) in &collected {
        let (min, mean, max) = stats(dvrecv);
        rows.push(Table3Row {
            kind: "dvrecv",
            bus_sleep: *sleep,
            interval_ms: *interval,
            min,
            mean,
            max,
        });
    }
    Table3 { rows }
}

impl Table3 {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Type",
            "Bus sleep",
            "Packet interval",
            "Min",
            "Mean",
            "Max",
        ]);
        for r in &self.rows {
            t.add_row(vec![
                r.kind.to_string(),
                if r.bus_sleep { "Enabled" } else { "Disabled" }.to_string(),
                format!("{}ms", r.interval_ms),
                format!("{:.3}", r.min),
                format!("{:.3}", r.mean),
                format!("{:.3}", r.max),
            ]);
        }
        format!(
            "Table 3: dvsend/dvrecv on Nexus 5, SDIO bus sleep enabled/disabled (ms)\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_sleep_dominates_dvsend_at_1s() {
        let t3 = run(15, 42);
        let find = |kind: &str, sleep: bool, interval: u64| -> &Table3Row {
            t3.rows
                .iter()
                .find(|r| r.kind == kind && r.bus_sleep == sleep && r.interval_ms == interval)
                .expect("row present")
        };
        // Sleep enabled, 1 s: the wake cost shows (paper: mean ≈ 10.2).
        let hot = find("dvsend", true, 1000);
        assert!(hot.mean > 7.0, "mean={}", hot.mean);
        assert!(hot.max < 15.0, "max={}", hot.max);
        // Sleep disabled, 1 s: sub-millisecond (paper: mean 0.72).
        let cold = find("dvsend", false, 1000);
        assert!(cold.mean < 1.5, "mean={}", cold.mean);
        // dvrecv at 1 s with sleep: RX wake ≈ 12.8.
        let rx = find("dvrecv", true, 1000);
        assert!(rx.mean > 9.0, "mean={}", rx.mean);
        // At 10 ms the bus never demotes: both ends stay low.
        let rx_fast = find("dvrecv", true, 10);
        assert!(rx_fast.mean < 4.0, "mean={}", rx_fast.mean);
        assert_eq!(t3.rows.len(), 8);
    }
}
