//! Configuration for the real-socket AcuteMon.

use std::net::SocketAddr;
use std::time::Duration;

use acutemon::Plan;
use simcore::SimDuration;

/// What the measurement thread sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveProbe {
    /// A fresh TCP connect per probe; RTT = SYN → accept (connect
    /// returning). The closest real-socket analogue of the paper's TCP
    /// control-message probing, available without raw sockets or root.
    TcpConnect,
    /// A UDP datagram to an echo service; RTT = send → matching reply.
    UdpEcho,
}

/// Configuration of a live measurement session.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// The target to measure (TCP port for [`LiveProbe::TcpConnect`], UDP
    /// echo port for [`LiveProbe::UdpEcho`]).
    pub target: SocketAddr,
    /// Destination of warm-up/background datagrams. Any routable address
    /// works: with `warmup_ttl` = 1 they die at the first hop. A closed
    /// UDP port on the gateway is the classic choice.
    pub warmup_dst: SocketAddr,
    /// Probe kind.
    pub probe: LiveProbe,
    /// Number of probes `K`.
    pub k: u32,
    /// Warm-up lead time `dpre` (paper default 20 ms).
    pub dpre: Duration,
    /// Background inter-packet interval `db` (paper default 20 ms).
    pub db: Duration,
    /// TTL of warm-up/background datagrams (paper default 1).
    pub warmup_ttl: u32,
    /// Per-probe timeout.
    pub probe_timeout: Duration,
    /// Whether background traffic is sent at all (the Fig. 9 arm).
    pub background_enabled: bool,
    /// Bounded retries per probe after a retryable failure (0 = record
    /// the loss and move on, the paper's behaviour).
    pub max_retries: u32,
    /// Base retry backoff; attempt `i` waits `retry_backoff × 2^(i−1)`
    /// plus deterministic jitter, and at least `dpre` behind the fresh
    /// warm-up datagram sent ahead of it.
    pub retry_backoff: Duration,
}

impl LiveConfig {
    /// Paper defaults against `target`, with warm-ups aimed at the same
    /// address (they die at the first hop anyway).
    pub fn new(target: SocketAddr, k: u32) -> LiveConfig {
        LiveConfig {
            target,
            warmup_dst: SocketAddr::new(target.ip(), 33434),
            probe: LiveProbe::TcpConnect,
            k,
            dpre: Duration::from_millis(20),
            db: Duration::from_millis(20),
            warmup_ttl: 1,
            probe_timeout: Duration::from_secs(2),
            background_enabled: true,
            max_retries: 0,
            retry_backoff: Duration::from_millis(50),
        }
    }

    /// The timing the session's [`Machine`](acutemon::Machine) runs: one
    /// target, re-warmed `dpre` ahead of each retry.
    pub(crate) fn plan(&self) -> Plan {
        let sim = |d: Duration| SimDuration::from_nanos(d.as_nanos() as u64);
        Plan {
            targets: 1,
            k: self.k,
            dpre: sim(self.dpre),
            db: sim(self.db),
            rewarm_lead: sim(self.dpre),
            probe_timeout: sim(self.probe_timeout),
            background: self.background_enabled,
            max_retries: self.max_retries,
            retry_backoff: sim(self.retry_backoff),
        }
    }

    /// Builder: allow up to `n` retries per probe.
    pub fn with_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Builder: set the base retry backoff.
    pub fn with_retry_backoff(mut self, backoff: Duration) -> Self {
        self.retry_backoff = backoff;
        self
    }

    /// Builder: switch the probe kind.
    pub fn with_probe(mut self, probe: LiveProbe) -> Self {
        self.probe = probe;
        self
    }

    /// Builder: set `dpre` and `db`.
    pub fn with_timing(mut self, dpre: Duration, db: Duration) -> Self {
        self.dpre = dpre;
        self.db = db;
        self
    }

    /// Builder: set the warm-up TTL.
    pub fn with_warmup_ttl(mut self, ttl: u32) -> Self {
        self.warmup_ttl = ttl;
        self
    }

    /// Builder: disable background traffic.
    pub fn without_background(mut self) -> Self {
        self.background_enabled = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let t: SocketAddr = "127.0.0.1:80".parse().unwrap();
        let c = LiveConfig::new(t, 100);
        assert_eq!(c.dpre, Duration::from_millis(20));
        assert_eq!(c.db, Duration::from_millis(20));
        assert_eq!(c.warmup_ttl, 1);
        assert_eq!(c.probe, LiveProbe::TcpConnect);
        assert!(c.background_enabled);
        assert_eq!(c.warmup_dst.port(), 33434);
        assert_eq!(c.max_retries, 0, "retries are opt-in");
        assert_eq!(c.plan().rewarm_lead, SimDuration::from_millis(20));
    }

    #[test]
    fn resilience_builders() {
        let t: SocketAddr = "127.0.0.1:7".parse().unwrap();
        let c = LiveConfig::new(t, 5)
            .with_retries(3)
            .with_retry_backoff(Duration::from_millis(25));
        assert_eq!(c.max_retries, 3);
        assert_eq!(c.retry_backoff, Duration::from_millis(25));
        assert_eq!(c.plan().retry_backoff, SimDuration::from_millis(25));
    }

    #[test]
    fn builders() {
        let t: SocketAddr = "127.0.0.1:7".parse().unwrap();
        let c = LiveConfig::new(t, 5)
            .with_probe(LiveProbe::UdpEcho)
            .with_timing(Duration::from_millis(10), Duration::from_millis(15))
            .with_warmup_ttl(64)
            .without_background();
        assert_eq!(c.probe, LiveProbe::UdpEcho);
        assert_eq!(c.db, Duration::from_millis(15));
        assert_eq!(c.warmup_ttl, 64);
        assert!(!c.background_enabled);
    }
}
