//! **Table 5**: the actual nRTTs (`dn`) measured by the external sniffers
//! while AcuteMon runs — for all five phones and emulated RTTs of 20, 50,
//! 85 and 135 ms. The claims to reproduce (§4.2.1): `dn` stays within a
//! few ms of the emulated value, and **no PSM activity** is observable in
//! the captures during the measurement.

use acutemon::{AcuteMonApp, AcuteMonConfig};
use am_stats::Table;
use measure::RecordSet;
use obs::ToJson;
use phone::{PhoneNode, PhoneProfile, RuntimeKind};
use simcore::SimTime;

use crate::experiments::Cell;
use crate::metrics::{breakdowns, series};
use crate::{addr, Testbed, TestbedConfig};

/// One (phone × RTT) cell.
#[derive(Debug, Clone, ToJson)]
pub struct Table5Cell {
    /// Phone model.
    pub phone: String,
    /// Emulated RTT (ms).
    pub rtt_ms: u64,
    /// `dn` summary.
    pub dn: Cell,
    /// PS-Polls observed during the measurement window (expect 0).
    pub ps_polls: usize,
    /// Probe completion fraction.
    pub completion: f64,
}

/// The Table 5 result.
#[derive(Debug, ToJson)]
pub struct Table5 {
    /// All cells, phone-major.
    pub cells: Vec<Table5Cell>,
}

/// Run AcuteMon on one phone over one emulated path and collect `dn`.
pub fn run_cell(profile: PhoneProfile, rtt_ms: u64, k: u32, seed: u64) -> Table5Cell {
    let phone_name = profile.name.to_string();
    let mut tb = Testbed::build(TestbedConfig::new(seed, profile, rtt_ms));
    let app = tb.install_app(
        Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, k))),
        RuntimeKind::Native,
    );
    // Sequential probes: k × (rtt + overheads) plus slack.
    let horizon = SimTime::from_millis((u64::from(k) * (rtt_ms + 10)).max(2_000) + 3_000);
    tb.run_until(horizon);
    let index = tb.capture_index();
    let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
    let am = phone_node.app::<AcuteMonApp>(app);
    let bds = breakdowns(&am.records, phone_node.ledger(), index);
    let dn = series(&bds, |b| b.dn);
    let start = am.records.first().map(|r| r.tou).unwrap_or(SimTime::ZERO);
    let end = am.finished_at().unwrap_or_else(|| tb.sim.now());
    Table5Cell {
        phone: phone_name,
        rtt_ms,
        dn: Cell::of(&dn),
        ps_polls: index.ps_polls_between(start, end),
        completion: am.records.completion(),
    }
}

/// Run the full Table 5 matrix.
pub fn run(k: u32, seed: u64) -> Table5 {
    let phones = [
        phone::nexus5(),
        phone::xperia_j(),
        phone::samsung_grand(),
        phone::nexus4(),
        phone::htc_one(),
    ];
    let mut cells = Vec::new();
    for (pi, p) in phones.into_iter().enumerate() {
        for (ri, &rtt) in [20u64, 50, 85, 135].iter().enumerate() {
            cells.push(run_cell(
                p.clone(),
                rtt,
                k,
                seed ^ ((pi as u64) << 8 | ri as u64),
            ));
        }
    }
    Table5 { cells }
}

impl Table5 {
    /// Render in the paper's layout (phones × emulated RTTs).
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["Phone", "20", "50", "85", "135"]);
        let phones: Vec<String> = {
            let mut v: Vec<String> = self.cells.iter().map(|c| c.phone.clone()).collect();
            v.dedup();
            v
        };
        for p in phones {
            let mut row = vec![p.clone()];
            for rtt in [20u64, 50, 85, 135] {
                let cell = self
                    .cells
                    .iter()
                    .find(|c| c.phone == p && c.rtt_ms == rtt)
                    .map(|c| c.dn.fmt())
                    .unwrap_or_else(|| "-".into());
                row.push(cell);
            }
            t.add_row(row);
        }
        format!(
            "Table 5: actual nRTTs (dn) by external sniffers under AcuteMon (mean ±95% CI, ms)\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dn_tracks_emulated_rtt_and_no_psm() {
        // Nexus 4 at 135 ms is the hardest case: Tip ≈ 40 ms, so without
        // AcuteMon every response would hit PSM buffering.
        let cell = run_cell(phone::nexus4(), 135, 25, 77);
        assert!((cell.completion - 1.0).abs() < 1e-12);
        assert!(
            (cell.dn.mean - 135.0).abs() < 4.0,
            "dn mean {} vs 135",
            cell.dn.mean
        );
        assert_eq!(cell.ps_polls, 0, "PSM activity detected");
    }

    #[test]
    fn short_path_also_clean() {
        let cell = run_cell(phone::samsung_grand(), 20, 25, 78);
        assert!(
            (cell.dn.mean - 20.0).abs() < 4.0,
            "dn mean {}",
            cell.dn.mean
        );
        assert_eq!(cell.ps_polls, 0);
    }
}
