//! Shared probe telemetry for the measurement tools.
//!
//! Every tool counts probes out, replies in, and the per-probe RTT it
//! reports; registering them under a per-tool prefix
//! (`measure.<tool>.*`) keeps runs comparable across tools.

use obs::{Counter, Histogram, Registry};

/// Telemetry handles for one probing session. Defaults to disabled
/// no-op handles, so tools that never call
/// [`ProbeMetrics::from_registry`] pay one branch per event.
#[derive(Debug, Clone, Default)]
pub struct ProbeMetrics {
    sent: Counter,
    received: Counter,
    timeouts: Counter,
    rtt_ms: Histogram,
}

impl ProbeMetrics {
    /// Register `measure.<tool>.{sent,received,timeouts,rtt_ms}` in
    /// `reg`.
    pub fn from_registry(reg: &Registry, tool: &str) -> ProbeMetrics {
        ProbeMetrics {
            sent: reg.counter(&format!("measure.{tool}.sent")),
            received: reg.counter(&format!("measure.{tool}.received")),
            timeouts: reg.counter(&format!("measure.{tool}.timeouts")),
            rtt_ms: reg.histogram_ms(&format!("measure.{tool}.rtt_ms")),
        }
    }

    /// A probe left the tool.
    pub fn on_send(&self) {
        self.sent.inc();
    }

    /// A reply completed a probe with the given reported RTT.
    pub fn on_reply(&self, rtt_ms: f64) {
        self.received.inc();
        self.rtt_ms.observe(rtt_ms);
    }

    /// A probe was still unanswered when its session's deadline passed.
    pub fn on_timeout(&self) {
        self.timeouts.inc();
    }
}
