//! The §3.1 root-cause experiment: ICMP ping on Nexus 4 and Nexus 5 at
//! two packet intervals (10 ms vs the 1 s default) over emulated 30 ms
//! and 60 ms paths. One run of the matrix yields both **Table 2** (mean
//! `du`/`dk`/`dn` with 95% CIs) and **Figure 3** (box plots of `∆dk−n`
//! and `∆du−k`).

use am_stats::{render_boxplots, BoxStats, Table};
use measure::{Baseline, BaselineApp};
use obs::ToJson;
use phone::{PhoneNode, PhoneProfile, RuntimeKind};
use simcore::{SimDuration, SimTime};

use crate::experiments::Cell;
use crate::metrics::{breakdowns, series, ProbeBreakdown};
use crate::{addr, Testbed, TestbedConfig};

/// One cell of the matrix: a full ping run with per-probe breakdowns.
#[derive(Debug)]
pub struct PingRun {
    /// Phone model name.
    pub phone: String,
    /// Emulated RTT in ms.
    pub rtt_ms: u64,
    /// Probe interval in ms.
    pub interval_ms: u64,
    /// Per-probe layer breakdowns.
    pub breakdowns: Vec<ProbeBreakdown>,
}

/// Run one ping experiment in the full testbed.
pub fn run_ping(
    profile: PhoneProfile,
    rtt_ms: u64,
    interval_ms: u64,
    k: u32,
    seed: u64,
) -> PingRun {
    let phone_name = profile.name.to_string();
    let mut tb = Testbed::build(TestbedConfig::new(seed, profile, rtt_ms));
    let app = tb.install_app(
        Box::new(BaselineApp::new(
            Baseline::Ping,
            addr::SERVER,
            k,
            SimDuration::from_millis(interval_ms),
        )),
        RuntimeKind::Native,
    );
    // Duration: all probes + timeout slack.
    let horizon = SimTime::ZERO
        + SimDuration::from_millis(interval_ms) * u64::from(k)
        + SimDuration::from_secs(5);
    tb.run_until(horizon);
    let index = tb.capture_index();
    let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
    let ping = phone_node.app::<BaselineApp>(app);
    PingRun {
        phone: phone_name,
        rtt_ms,
        interval_ms,
        breakdowns: breakdowns(&ping.records, phone_node.ledger(), index),
    }
}

/// A Table 2 row.
#[derive(Debug, Clone, ToJson)]
pub struct Table2Row {
    /// Phone model.
    pub phone: String,
    /// Emulated RTT (ms).
    pub rtt_ms: u64,
    /// Probe interval (ms).
    pub interval_ms: u64,
    /// User-level RTT.
    pub du: Cell,
    /// Kernel-level RTT.
    pub dk: Cell,
    /// Network-level RTT.
    pub dn: Cell,
}

/// A Figure 3 panel entry: box stats for one (phone, interval, rtt).
#[derive(Debug, Clone, ToJson)]
pub struct Fig3Entry {
    /// Panel label, e.g. `"N5(1s)"`.
    pub label: String,
    /// Emulated RTT (ms).
    pub rtt_ms: u64,
    /// `∆dk−n` box statistics.
    pub dk_n: BoxStats,
    /// `∆du−k` box statistics.
    pub du_k: BoxStats,
}

/// The full matrix result.
#[derive(Debug, ToJson)]
pub struct PingMatrix {
    /// Table 2 rows.
    pub table2: Vec<Table2Row>,
    /// Figure 3 entries.
    pub fig3: Vec<Fig3Entry>,
}

/// Run the whole §3.1 matrix: {Nexus 4, Nexus 5} × {30, 60 ms} ×
/// {10 ms, 1 s}, `k` probes each.
pub fn run(k: u32, seed: u64) -> PingMatrix {
    let mut table2 = Vec::new();
    let mut fig3 = Vec::new();
    for (pi, profile_fn) in [phone::nexus4 as fn() -> PhoneProfile, phone::nexus5]
        .iter()
        .enumerate()
    {
        for (ri, &rtt) in [30u64, 60].iter().enumerate() {
            for (ii, &interval) in [10u64, 1000].iter().enumerate() {
                let run = run_ping(
                    profile_fn(),
                    rtt,
                    interval,
                    k,
                    seed ^ ((pi as u64) << 8 | (ri as u64) << 4 | ii as u64),
                );
                let du = series(&run.breakdowns, |b| b.reported);
                let dk = series(&run.breakdowns, |b| b.dk);
                let dn = series(&run.breakdowns, |b| b.dn);
                table2.push(Table2Row {
                    phone: run.phone.clone(),
                    rtt_ms: rtt,
                    interval_ms: interval,
                    du: Cell::of(&du),
                    dk: Cell::of(&dk),
                    dn: Cell::of(&dn),
                });
                let short = if run.phone.contains('4') { "N4" } else { "N5" };
                let itag = if interval == 10 { "10ms" } else { "1s" };
                let dk_n = series(&run.breakdowns, |b| b.dk_n());
                let du_k = series(&run.breakdowns, |b| b.du_k());
                if let (Some(a), Some(b)) = (BoxStats::of(&dk_n), BoxStats::of(&du_k)) {
                    fig3.push(Fig3Entry {
                        label: format!("{short}({itag})"),
                        rtt_ms: rtt,
                        dk_n: a,
                        du_k: b,
                    });
                }
            }
        }
    }
    PingMatrix { table2, fig3 }
}

impl PingMatrix {
    /// Render Table 2 in the paper's layout.
    pub fn render_table2(&self) -> String {
        let mut t = Table::new(vec!["Phone", "RTT", "Intv.", "du", "dk", "dn"]);
        for r in &self.table2 {
            t.add_row(vec![
                r.phone.clone(),
                format!("{}ms", r.rtt_ms),
                if r.interval_ms >= 1000 {
                    format!("{}s", r.interval_ms / 1000)
                } else {
                    format!("{}ms", r.interval_ms)
                },
                r.du.fmt(),
                r.dk.fmt(),
                r.dn.fmt(),
            ]);
        }
        format!(
            "Table 2: RTTs measured at different layers (mean ±95% CI, ms)\n\n{}",
            t.render()
        )
    }

    /// Render Figure 3 as ASCII box plots, one section per emulated RTT.
    pub fn render_fig3(&self) -> String {
        let mut out =
            String::from("Figure 3: kernel-phy (∆dk−n) and user-kernel (∆du−k) overheads\n");
        for rtt in [30u64, 60] {
            let dk_n: Vec<(String, BoxStats)> = self
                .fig3
                .iter()
                .filter(|e| e.rtt_ms == rtt)
                .map(|e| (e.label.clone(), e.dk_n.clone()))
                .collect();
            let du_k: Vec<(String, BoxStats)> = self
                .fig3
                .iter()
                .filter(|e| e.rtt_ms == rtt)
                .map(|e| (e.label.clone(), e.du_k.clone()))
                .collect();
            out.push_str(&format!("\n∆dk−n ({rtt} ms emulated):\n"));
            out.push_str(&render_boxplots(&dk_n, 52));
            out.push_str(&format!("\n∆du−k ({rtt} ms emulated):\n"));
            out.push_str(&render_boxplots(&du_k, 52));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline claims of Table 2 / Fig. 3 hold in a reduced run:
    /// small interval → small overheads; 1 s interval → Nexus 5 inflates
    /// inside the phone, Nexus 4 mostly in the network at 60 ms.
    #[test]
    fn table2_shape_holds_small() {
        // Nexus 5, 60 ms, both intervals, reduced k for test speed.
        let fast = run_ping(phone::nexus5(), 60, 10, 20, 1);
        let slow = run_ping(phone::nexus5(), 60, 1000, 20, 2);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let du_fast = mean(&series(&fast.breakdowns, |b| b.du));
        let du_slow = mean(&series(&slow.breakdowns, |b| b.du));
        let dn_slow = mean(&series(&slow.breakdowns, |b| b.dn));
        assert!(du_fast < 67.0, "du_fast={du_fast}");
        assert!(du_slow > 75.0, "du_slow={du_slow}");
        // Nexus 5 inflation is internal: dn stays near 60.
        assert!((dn_slow - 60.0).abs() < 4.0, "dn_slow={dn_slow}");
    }

    #[test]
    fn nexus4_inflates_in_network_at_60ms() {
        let slow = run_ping(phone::nexus4(), 60, 1000, 20, 3);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let dn = mean(&series(&slow.breakdowns, |b| b.dn));
        let du = mean(&series(&slow.breakdowns, |b| b.du));
        // Tip ≈ 40 ms < 60 ms: the response waits at the AP for a beacon.
        assert!(dn > 85.0, "dn={dn}");
        // And du tracks dn (internal part is only ~6 ms).
        assert!(du - dn < 12.0, "du={du} dn={dn}");
    }
}
