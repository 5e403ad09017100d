//! The multi-layer timestamp ledger (Fig. 1 of the paper).
//!
//! Every packet that crosses the phone is stamped at each vantage point:
//!
//! TX direction: `tou` (app send) → `tok` (kernel/bpf) → `tov` (driver
//! `dhd_start_xmit`) → `tbus` (driver `dhdsdio_txpkt`, data on the bus).
//!
//! RX direction: `tiv` (driver `dhdsdio_isr`) → `trxf`
//! (`dhd_rxf_enqueue`) → `tik` (kernel `netif_rx_ni`/bpf) → `tiu` (app
//! receive).
//!
//! `ton`/`tin` (the air) come from the external sniffers, not the phone.
//! The per-layer RTTs and the ∆ overheads of §2.1 are computed by joining
//! this ledger with sniffer captures (see the `sniffer` and `testbed`
//! crates).

use simcore::{IdMap, SimTime};

/// Per-packet stamps (all optional: a packet only crosses one direction).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PacketStamps {
    /// App called send (user clock).
    pub tou: Option<SimTime>,
    /// Kernel saw the outgoing packet (what `tcpdump` stamps).
    pub tok: Option<SimTime>,
    /// Driver entry `dhd_start_xmit` (hook 1 of Fig. 4).
    pub tov: Option<SimTime>,
    /// Data written to the bus, `dhdsdio_txpkt` (hook 2 of Fig. 4).
    pub tbus: Option<SimTime>,
    /// Driver interrupt `dhdsdio_isr` (hook 1 of Fig. 5).
    pub tiv: Option<SimTime>,
    /// Frames queued to the rx thread, `dhd_rxf_enqueue` (hook 2, Fig. 5).
    pub trxf: Option<SimTime>,
    /// Kernel delivered the packet (`netif_rx_ni`, what `tcpdump` stamps).
    pub tik: Option<SimTime>,
    /// App received the packet (user clock).
    pub tiu: Option<SimTime>,
}

impl PacketStamps {
    /// `dvsend`: driver TX latency, `tbus − tov` (Table 3), in ms.
    pub fn dvsend_ms(&self) -> Option<f64> {
        Some(self.tbus?.saturating_since(self.tov?).as_ms_f64())
    }

    /// `dvrecv`: driver RX latency, `trxf − tiv` (Table 3), in ms.
    pub fn dvrecv_ms(&self) -> Option<f64> {
        Some(self.trxf?.saturating_since(self.tiv?).as_ms_f64())
    }
}

/// The phone's timestamp ledger, keyed by packet id.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    map: IdMap<PacketStamps>,
}

macro_rules! setter {
    ($name:ident, $field:ident) => {
        /// Record this stamp for packet `id`.
        pub fn $name(&mut self, id: u64, at: SimTime) {
            self.map.entry(id).or_default().$field = Some(at);
        }
    };
}

impl Ledger {
    /// Create an empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    setter!(set_tou, tou);
    setter!(set_tok, tok);
    setter!(set_tov, tov);
    setter!(set_tbus, tbus);
    setter!(set_tiv, tiv);
    setter!(set_trxf, trxf);
    setter!(set_tik, tik);
    setter!(set_tiu, tiu);

    /// Forget every packet, keeping the capacity.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Stamps for a packet, if any were recorded.
    pub fn get(&self, id: u64) -> Option<&PacketStamps> {
        self.map.get(&id)
    }

    /// Number of packets with at least one stamp.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All `dvsend` samples in ms (Table 3 rows).
    pub fn dvsend_samples(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.map.values().filter_map(|s| s.dvsend_ms()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        v
    }

    /// All `dvrecv` samples in ms (Table 3 rows).
    pub fn dvrecv_samples(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.map.values().filter_map(|s| s.dvrecv_ms()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        v
    }

    /// Kernel-level RTT `dk = tik(resp) − tok(req)` in ms, given the
    /// request and response packet ids.
    pub fn dk_ms(&self, req: u64, resp: u64) -> Option<f64> {
        let tok = self.get(req)?.tok?;
        let tik = self.get(resp)?.tik?;
        Some(tik.saturating_since(tok).as_ms_f64())
    }

    /// Driver-level RTT `dv = tiv(resp) − tov(req)` in ms.
    pub fn dv_ms(&self, req: u64, resp: u64) -> Option<f64> {
        let tov = self.get(req)?.tov?;
        let tiv = self.get(resp)?.tiv?;
        Some(tiv.saturating_since(tov).as_ms_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn stamps_accumulate_per_packet() {
        let mut l = Ledger::new();
        l.set_tou(1, t(100));
        l.set_tok(1, t(180));
        l.set_tov(1, t(210));
        l.set_tbus(1, t(460));
        let s = l.get(1).unwrap();
        assert_eq!(s.tou, Some(t(100)));
        assert_eq!(s.tbus, Some(t(460)));
        assert!((s.dvsend_ms().unwrap() - 0.25).abs() < 1e-9);
        assert_eq!(s.dvrecv_ms(), None);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn rtt_joins() {
        let mut l = Ledger::new();
        l.set_tok(1, t(0));
        l.set_tov(1, t(50));
        l.set_tiv(2, t(30_000));
        l.set_tik(2, t(31_500));
        assert!((l.dk_ms(1, 2).unwrap() - 31.5).abs() < 1e-9);
        assert!((l.dv_ms(1, 2).unwrap() - 29.95).abs() < 1e-9);
        assert_eq!(l.dk_ms(1, 99), None);
    }

    #[test]
    fn sample_collections_sorted() {
        let mut l = Ledger::new();
        for (id, (a, b)) in [(1u64, (100u64, 400u64)), (2, (100, 150)), (3, (100, 900))] {
            l.set_tov(id, t(a));
            l.set_tbus(id, t(b));
        }
        let dv = l.dvsend_samples();
        assert_eq!(dv.len(), 3);
        assert!(dv[0] <= dv[1] && dv[1] <= dv[2]);
        assert!(l.dvrecv_samples().is_empty());
    }

    #[test]
    fn empty_ledger() {
        let l = Ledger::new();
        assert!(l.is_empty());
        assert_eq!(l.get(5), None);
    }
}
