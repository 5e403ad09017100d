//! AcuteMon configuration (§4.1).

use measure::ProbeKind;
use simcore::SimDuration;
use wire::Ip;

use crate::machine::Plan;

/// AcuteMon configuration.
#[derive(Debug, Clone)]
pub struct AcuteMonConfig {
    /// The servers to measure, probed round-robin (one for the paper's
    /// single-server runs). The first also takes the warm-up/background
    /// packets: they carry `warmup_ttl` and die at the first hop.
    pub targets: Vec<Ip>,
    /// Number of probes `K` per target.
    pub k: u32,
    /// Probe kind.
    pub probe: ProbeKind,
    /// Warm-up lead time `dpre`; must satisfy
    /// `Tprom < dpre < min(Tis, Tip)`. Default 20 ms (§4.1).
    pub dpre: SimDuration,
    /// Background inter-packet interval `db < min(Tis, Tip)`. Default
    /// 20 ms (§4.1).
    pub db: SimDuration,
    /// TTL of warm-up/background packets. Default 1: dropped at the
    /// first-hop gateway so they never load the measured path.
    pub warmup_ttl: u8,
    /// Per-probe timeout (lost probes are recorded and skipped).
    pub probe_timeout: SimDuration,
    /// Whether the BT sends background traffic after the warm-up packet.
    /// Fig. 9 disables this (with bus sleep also disabled) to show the
    /// background traffic itself is harmless.
    pub background_enabled: bool,
    /// Bounded retries per probe after a timeout (0 = the paper's
    /// behaviour: record the loss and move on). Each retry is sent
    /// behind a fresh warm-up, at least the re-warm lead after it.
    pub max_retries: u32,
    /// Base retry backoff; attempt `i` waits `retry_backoff × 2^(i−1)`
    /// plus deterministic jitter before resending.
    pub retry_backoff: SimDuration,
    /// Re-warm lead time used for *retries* instead of `dpre`, when set.
    /// On WiFi the two are the same (a few ms of `Tprom` either way), but
    /// on cellular a timed-out probe plus its backoff can outlast the RRC
    /// inactivity timers — the bearer demotes, and the re-warm must cover
    /// the full *promotion delay* (`cellular::acutemon_rewarm_dpre`), not
    /// the WiFi-scale `dpre`.
    pub rewarm_dpre: Option<SimDuration>,
}

impl AcuteMonConfig {
    /// The paper's defaults: TCP connect probes, `dpre = db = 20 ms`,
    /// TTL 1.
    pub fn new(target: Ip, k: u32) -> AcuteMonConfig {
        AcuteMonConfig::multi(vec![target], k)
    }

    /// Paper defaults against several targets, `k` probes each (the
    /// MopEye multi-server case): one BT keeps the phone awake for all of
    /// them, so its cost is paid once, not per target.
    pub fn multi(targets: Vec<Ip>, k: u32) -> AcuteMonConfig {
        AcuteMonConfig {
            targets,
            k,
            probe: ProbeKind::TcpConnect,
            dpre: SimDuration::from_millis(20),
            db: SimDuration::from_millis(20),
            warmup_ttl: 1,
            probe_timeout: SimDuration::from_secs(2),
            background_enabled: true,
            max_retries: 0,
            retry_backoff: SimDuration::from_millis(50),
            rewarm_dpre: None,
        }
    }

    /// The effective re-warm lead for a retry: `rewarm_dpre` when set
    /// (cellular), `dpre` otherwise (WiFi).
    pub fn effective_rewarm_dpre(&self) -> SimDuration {
        self.rewarm_dpre.unwrap_or(self.dpre)
    }

    /// The timing the session's [`Machine`](crate::Machine) runs.
    pub fn plan(&self) -> Plan {
        Plan {
            targets: self.targets.len() as u32,
            k: self.k,
            dpre: self.dpre,
            db: self.db,
            rewarm_lead: self.effective_rewarm_dpre(),
            probe_timeout: self.probe_timeout,
            background: self.background_enabled,
            max_retries: self.max_retries,
            retry_backoff: self.retry_backoff,
        }
    }

    /// Builder: allow up to `n` retries per probe (with exponential
    /// backoff, each behind a fresh warm-up).
    pub fn with_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Builder: set the base retry backoff.
    pub fn with_retry_backoff(mut self, backoff: SimDuration) -> Self {
        self.retry_backoff = backoff;
        self
    }

    /// Builder: hold retried probes at least `lead` behind their fresh
    /// warm-up (use `cellular::acutemon_rewarm_dpre` on RRC bearers).
    pub fn with_rewarm_dpre(mut self, lead: SimDuration) -> Self {
        self.rewarm_dpre = Some(lead);
        self
    }

    /// Builder: disable the background keep-awake traffic (warm-up packet
    /// only) — the Fig. 9 comparison arm.
    pub fn without_background(mut self) -> Self {
        self.background_enabled = false;
        self
    }

    /// Builder: set the probe kind.
    pub fn with_probe(mut self, probe: ProbeKind) -> Self {
        self.probe = probe;
        self
    }

    /// Builder: set `dpre` and `db` (the ablation sweeps these).
    pub fn with_timing(mut self, dpre: SimDuration, db: SimDuration) -> Self {
        self.dpre = dpre;
        self.db = db;
        self
    }

    /// Builder: set the warm-up TTL (the TTL ablation uses 64).
    pub fn with_warmup_ttl(mut self, ttl: u8) -> Self {
        self.warmup_ttl = ttl;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AcuteMonConfig::new(Ip::new(10, 0, 0, 1), 100);
        assert_eq!(c.dpre, SimDuration::from_millis(20));
        assert_eq!(c.db, SimDuration::from_millis(20));
        assert_eq!(c.warmup_ttl, 1);
        assert_eq!(c.k, 100);
        assert_eq!(c.probe, ProbeKind::TcpConnect);
        assert_eq!(c.targets, vec![Ip::new(10, 0, 0, 1)]);
    }

    #[test]
    fn builders() {
        let c = AcuteMonConfig::new(Ip::new(10, 0, 0, 1), 5)
            .with_probe(ProbeKind::Icmp)
            .with_timing(SimDuration::from_millis(10), SimDuration::from_millis(40))
            .with_warmup_ttl(64);
        assert_eq!(c.probe, ProbeKind::Icmp);
        assert_eq!(c.db, SimDuration::from_millis(40));
        assert_eq!(c.warmup_ttl, 64);
    }

    #[test]
    fn retries_default_off() {
        let c = AcuteMonConfig::new(Ip::new(10, 0, 0, 1), 5);
        assert_eq!(c.max_retries, 0);
        assert_eq!(c.plan().rewarm_lead, c.dpre);
        let c = c
            .with_retries(3)
            .with_retry_backoff(SimDuration::from_millis(25))
            .with_rewarm_dpre(SimDuration::from_millis(300));
        assert_eq!(c.max_retries, 3);
        assert_eq!(c.retry_backoff, SimDuration::from_millis(25));
        assert_eq!(c.plan().rewarm_lead, SimDuration::from_millis(300));
    }
}
