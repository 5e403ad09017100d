//! **Figure 7**: box plots of AcuteMon's residual overheads `∆du−k` and
//! `∆dk−n` for emulated RTTs of 20/50/85/135 ms on three phones (Nexus 5,
//! Samsung Grand, Nexus 4 — the paper omits the other two as "very
//! similar"). The claims: `∆du−k` ≲ 0.5 ms (< 1 ms on the low-end
//! phones), `∆dk−n` medians < 2 ms (≈ 0.8 ms on Qualcomm phones), upper
//! whiskers < 3 ms (4 ms for Xperia J), and — crucially — the overheads
//! are independent of the emulated RTT.

use acutemon::{AcuteMonApp, AcuteMonConfig};
use am_stats::{render_boxplots, BoxStats};
use obs::ToJson;
use phone::{PhoneNode, PhoneProfile, RuntimeKind};
use simcore::SimTime;

use crate::metrics::{breakdowns, series};
use crate::{addr, Testbed, TestbedConfig};

/// Box statistics for one (phone, rtt) pair.
#[derive(Debug, Clone, ToJson)]
pub struct Fig7Entry {
    /// Phone model.
    pub phone: String,
    /// Emulated RTT (ms).
    pub rtt_ms: u64,
    /// `∆du−k` box stats.
    pub du_k: BoxStats,
    /// `∆dk−n` box stats.
    pub dk_n: BoxStats,
}

/// The Figure 7 result.
#[derive(Debug, ToJson)]
pub struct Fig7 {
    /// All entries.
    pub entries: Vec<Fig7Entry>,
}

/// Run one (phone, rtt) AcuteMon measurement and extract the overheads.
pub fn run_entry(profile: PhoneProfile, rtt_ms: u64, k: u32, seed: u64) -> Fig7Entry {
    let phone_name = profile.name.to_string();
    let mut tb = Testbed::build(TestbedConfig::new(seed, profile, rtt_ms));
    let app = tb.install_app(
        Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, k))),
        RuntimeKind::Native,
    );
    let horizon = SimTime::from_millis((u64::from(k) * (rtt_ms + 10)).max(2_000) + 3_000);
    tb.run_until(horizon);
    let index = tb.capture_index();
    let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
    let am = phone_node.app::<AcuteMonApp>(app);
    let bds = breakdowns(&am.records, phone_node.ledger(), index);
    let du_k = series(&bds, |b| b.du_k());
    let dk_n = series(&bds, |b| b.dk_n());
    Fig7Entry {
        phone: phone_name,
        rtt_ms,
        du_k: BoxStats::of(&du_k).expect("du_k samples"),
        dk_n: BoxStats::of(&dk_n).expect("dk_n samples"),
    }
}

/// Run the Figure 7 matrix.
pub fn run(k: u32, seed: u64) -> Fig7 {
    let phones = [phone::nexus5(), phone::samsung_grand(), phone::nexus4()];
    let mut entries = Vec::new();
    for (pi, p) in phones.into_iter().enumerate() {
        for (ri, &rtt) in [20u64, 50, 85, 135].iter().enumerate() {
            entries.push(run_entry(
                p.clone(),
                rtt,
                k,
                seed ^ ((pi as u64) << 8 | ri as u64),
            ));
        }
    }
    Fig7 { entries }
}

impl Fig7 {
    /// Render as ASCII box plots, one panel per phone.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Figure 7: AcuteMon overheads ∆du−k (u) and ∆dk−n (k) by emulated RTT\n");
        let mut phones: Vec<String> = self.entries.iter().map(|e| e.phone.clone()).collect();
        phones.dedup();
        for p in phones {
            out.push_str(&format!("\n{p}:\n"));
            let mut items = Vec::new();
            for e in self.entries.iter().filter(|e| e.phone == p) {
                items.push((format!("{}ms(u)", e.rtt_ms), e.du_k.clone()));
                items.push((format!("{}ms(k)", e.rtt_ms), e.dk_n.clone()));
            }
            out.push_str(&render_boxplots(&items, 52));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_small_and_rtt_independent() {
        let short = run_entry(phone::nexus5(), 20, 30, 5);
        let long = run_entry(phone::nexus5(), 135, 30, 6);
        for e in [&short, &long] {
            assert!(e.du_k.median < 0.8, "du_k median {}", e.du_k.median);
            assert!(e.dk_n.median < 3.0, "dk_n median {}", e.dk_n.median);
        }
        // RTT independence: medians within 1.5 ms of each other.
        assert!(
            (short.dk_n.median - long.dk_n.median).abs() < 1.5,
            "{} vs {}",
            short.dk_n.median,
            long.dk_n.median
        );
    }

    #[test]
    fn qualcomm_phone_has_sub_ms_dk_n() {
        let e = run_entry(phone::nexus4(), 50, 30, 7);
        assert!(e.dk_n.median < 1.6, "dk_n median {}", e.dk_n.median);
    }
}
