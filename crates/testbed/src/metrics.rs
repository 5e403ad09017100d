//! Joining the three vantage points (Fig. 1) into per-probe breakdowns.
//!
//! For each probe: the tool's user-level record (`du`, and the RTT the
//! tool *reported*), the phone ledger (`dk`, `dv`), and the sniffer index
//! (`dn`). From these the §2.1 overheads follow:
//! `∆du−k = du_reported − dk`, `∆dk−v = dk − dv`, `∆dv−n = dv − dn`,
//! `∆dk−n = dk − dn`.

use measure::RttRecord;
use obs::ToJson;
use phone::Ledger;
use sniffer::CaptureIndex;

/// All per-layer RTTs and overheads for one probe, in ms.
#[derive(Debug, Clone, Copy, PartialEq, ToJson)]
pub struct ProbeBreakdown {
    /// Probe index.
    pub probe: u32,
    /// True user-level RTT.
    pub du: Option<f64>,
    /// RTT as reported by the tool (quirks applied).
    pub reported: Option<f64>,
    /// Kernel-level RTT (tcpdump view).
    pub dk: Option<f64>,
    /// Driver-level RTT.
    pub dv: Option<f64>,
    /// Network-level RTT (sniffer view).
    pub dn: Option<f64>,
}

impl ProbeBreakdown {
    /// `∆du−k` using the reported RTT (how the paper computes Fig. 3).
    pub fn du_k(&self) -> Option<f64> {
        Some(self.reported? - self.dk?)
    }

    /// `∆dk−v`.
    pub fn dk_v(&self) -> Option<f64> {
        Some(self.dk? - self.dv?)
    }

    /// `∆dv−n`.
    pub fn dv_n(&self) -> Option<f64> {
        Some(self.dv? - self.dn?)
    }

    /// `∆dk−n`.
    pub fn dk_n(&self) -> Option<f64> {
        Some(self.dk? - self.dn?)
    }

    /// Total overhead `∆d = du − dn` (Eq. 1).
    pub fn total(&self) -> Option<f64> {
        Some(self.du? - self.dn?)
    }
}

/// Join one probe's record with the ledger and the captures.
pub fn breakdown(r: &RttRecord, ledger: &Ledger, index: &CaptureIndex) -> ProbeBreakdown {
    let (dk, dv, dn) = match r.resp_id {
        Some(resp) => (
            ledger.dk_ms(r.req_id, resp),
            ledger.dv_ms(r.req_id, resp),
            index.dn_ms(r.req_id, resp),
        ),
        None => (None, None, None),
    };
    ProbeBreakdown {
        probe: r.probe,
        du: r.du_ms(),
        reported: r.reported_ms,
        dk,
        dv,
        dn,
    }
}

/// Join records, ledger, and captures into breakdowns.
pub fn breakdowns(
    records: &[RttRecord],
    ledger: &Ledger,
    index: &CaptureIndex,
) -> Vec<ProbeBreakdown> {
    records
        .iter()
        .map(|r| breakdown(r, ledger, index))
        .collect()
}

/// Collect a field across breakdowns, dropping missing values.
pub fn series(bds: &[ProbeBreakdown], f: impl Fn(&ProbeBreakdown) -> Option<f64>) -> Vec<f64> {
    bds.iter().filter_map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    #[test]
    fn overheads_compose() {
        let b = ProbeBreakdown {
            probe: 0,
            du: Some(33.16),
            reported: Some(33.16),
            dk: Some(32.46),
            dv: Some(32.0),
            dn: Some(31.29),
        };
        assert!((b.du_k().unwrap() - 0.70).abs() < 1e-9);
        assert!((b.dk_n().unwrap() - 1.17).abs() < 1e-9);
        assert!((b.dk_v().unwrap() - 0.46).abs() < 1e-9);
        assert!((b.dv_n().unwrap() - 0.71).abs() < 1e-9);
        assert!((b.total().unwrap() - 1.87).abs() < 1e-9);
        // ∆dk−n = ∆dk−v + ∆dv−n (§2.1).
        assert!((b.dk_n().unwrap() - (b.dk_v().unwrap() + b.dv_n().unwrap())).abs() < 1e-9);
    }

    #[test]
    fn missing_layers_give_none() {
        let b = ProbeBreakdown {
            probe: 0,
            du: Some(30.0),
            reported: Some(30.0),
            dk: None,
            dv: None,
            dn: Some(29.0),
        };
        assert_eq!(b.du_k(), None);
        assert_eq!(b.dk_n(), None);
        assert_eq!(b.total(), Some(1.0));
    }

    #[test]
    fn join_handles_lost_probes() {
        let ledger = Ledger::new();
        let index = CaptureIndex::default();
        let records = vec![RttRecord::sent(0, 1, SimTime::ZERO)];
        let bds = breakdowns(&records, &ledger, &index);
        assert_eq!(bds.len(), 1);
        assert_eq!(bds[0].du, None);
        assert!(series(&bds, |b| b.du).is_empty());
    }
}
