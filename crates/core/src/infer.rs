//! Timeout inference — the paper's future-work "training" (§4.1):
//!
//! > "inferring the actual `Tis` and `Tip` of a particular smartphone is
//! > challenging. A simple solution is training the program to obtain
//! > suitable values."
//!
//! [`TimeoutInferApp`] implements that training for the host-bus timeout
//! `Tis`, entirely at app level: it primes the radio path, idles a
//! controlled gap, probes, and looks for the step in user-level RTT where
//! the bus starts paying its wake cost. The estimate then drives safe
//! `dpre`/`db` choices (`db < min(Tis, Tip)`). `Tip` needs a sniffer's
//! view (or server cooperation) and is measured by the testbed's Table-4
//! experiment instead.

use measure::{ProbeKind, ProbeWire};
use phone::{App, AppCtx};
use simcore::SimDuration;
use wire::{Ip, Packet, PacketTag};

/// Training echoes: ICMP under their own ident, so they never claim a
/// measurement session's replies.
const WIRE: ProbeWire = ProbeWire {
    kind: ProbeKind::Icmp,
    port: 0,
    session: 0x1F00,
};

/// Configuration for the training run.
#[derive(Debug, Clone)]
pub struct TimeoutInferConfig {
    /// Echo target (anything that answers ICMP).
    pub target: Ip,
    /// Idle gaps to test, in ms, ascending.
    pub gaps_ms: Vec<u64>,
    /// Probes per gap.
    pub reps: u32,
}

impl TimeoutInferConfig {
    /// A standard sweep bracketing the default 50 ms `Tis`.
    pub fn standard(target: Ip) -> TimeoutInferConfig {
        TimeoutInferConfig {
            target,
            gaps_ms: vec![10, 20, 30, 40, 45, 55, 60, 70, 90, 120],
            reps: 8,
        }
    }
}

/// One training sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapSample {
    /// Idle gap before the test probe, ms.
    pub gap_ms: u64,
    /// Measured user-level RTT of the test probe, ms.
    pub rtt_ms: f64,
}

const TAG_GAP_DONE: u32 = 1;

/// The training app: sweeps idle gaps and records test-probe RTTs.
pub struct TimeoutInferApp {
    cfg: TimeoutInferConfig,
    /// Collected samples.
    pub samples: Vec<GapSample>,
    /// Iteration cursor: `iter = gap_idx * reps + rep`.
    iter: u32,
    /// Echoes sent so far; the next one is echo number `sent`.
    sent: u32,
    phase: Phase,
    probe_sent_at: Option<simcore::SimTime>,
    /// Set once the sweep is complete.
    pub done: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Waiting for the primer reply.
    Priming,
    /// Idling the gap.
    Gapping,
    /// Waiting for the test reply.
    Testing,
}

impl TimeoutInferApp {
    /// Create a training session.
    pub fn new(cfg: TimeoutInferConfig) -> TimeoutInferApp {
        TimeoutInferApp {
            cfg,
            samples: Vec::new(),
            iter: 0,
            sent: 0,
            phase: Phase::Priming,
            probe_sent_at: None,
            done: false,
        }
    }

    fn total_iters(&self) -> u32 {
        self.cfg.gaps_ms.len() as u32 * self.cfg.reps
    }

    fn current_gap(&self) -> Option<u64> {
        let idx = (self.iter / self.cfg.reps) as usize;
        self.cfg.gaps_ms.get(idx).copied()
    }

    fn send_echo(&mut self, ctx: &mut AppCtx<'_, '_>) {
        let (l4, payload) = WIRE.request(self.sent);
        let tag = PacketTag::Probe(self.sent);
        ctx.send(self.cfg.target, 64, l4, payload, tag);
        self.sent += 1;
    }

    fn start_iteration(&mut self, ctx: &mut AppCtx<'_, '_>) {
        if self.iter >= self.total_iters() {
            self.done = true;
            return;
        }
        self.phase = Phase::Priming;
        self.send_echo(ctx);
    }
}

impl App for TimeoutInferApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_, '_>) {
        self.start_iteration(ctx);
    }

    fn wants(&self, packet: &Packet) -> bool {
        WIRE.probe_of(packet, self.sent).is_some()
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<'_, '_>, _packet: Packet) {
        match self.phase {
            Phase::Priming => {
                // Primer answered: the RX path was just active. Idle the
                // gap from *now*.
                let Some(gap) = self.current_gap() else {
                    self.done = true;
                    return;
                };
                self.phase = Phase::Gapping;
                ctx.set_timer(SimDuration::from_millis(gap), TAG_GAP_DONE);
            }
            Phase::Testing => {
                let rtt = ctx
                    .now()
                    .saturating_since(self.probe_sent_at.expect("test probe sent"))
                    .as_ms_f64();
                if let Some(gap_ms) = self.current_gap() {
                    self.samples.push(GapSample {
                        gap_ms,
                        rtt_ms: rtt,
                    });
                }
                self.iter += 1;
                self.start_iteration(ctx);
            }
            Phase::Gapping => {} // stray duplicate; ignore
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_, '_>, tag: u32) {
        if tag == TAG_GAP_DONE && self.phase == Phase::Gapping {
            self.phase = Phase::Testing;
            self.probe_sent_at = Some(ctx.now());
            self.send_echo(ctx);
        }
    }
}

/// The result of analysing a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeoutEstimate {
    /// Estimated bus demotion timeout `Tis`, ms (midpoint between the
    /// last clean gap and the first inflated one).
    pub tis_ms: f64,
    /// Baseline (awake-path) RTT, ms.
    pub baseline_ms: f64,
    /// Recommended background interval `db` (safely under the estimate).
    pub recommended_db_ms: f64,
}

/// Estimate `Tis` from training samples. `threshold_ms` is the RTT step
/// that distinguishes a wake from noise (the Broadcom wake is ~10 ms, the
/// Qualcomm one ~5 ms; 3 ms splits both from the sub-ms awake path).
pub fn estimate_tis(samples: &[GapSample], threshold_ms: f64) -> Option<TimeoutEstimate> {
    if samples.is_empty() {
        return None;
    }
    let mut gaps: Vec<u64> = samples.iter().map(|s| s.gap_ms).collect();
    gaps.sort_unstable();
    gaps.dedup();
    let median_at = |gap: u64| -> f64 {
        let mut v: Vec<f64> = samples
            .iter()
            .filter(|s| s.gap_ms == gap)
            .map(|s| s.rtt_ms)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        v[v.len() / 2]
    };
    let baseline = median_at(gaps[0]);
    let mut last_clean = gaps[0];
    for &g in &gaps {
        if median_at(g) >= baseline + threshold_ms {
            let tis = (last_clean + g) as f64 / 2.0;
            return Some(TimeoutEstimate {
                tis_ms: tis,
                baseline_ms: baseline,
                recommended_db_ms: (tis * 0.4).max(5.0),
            });
        }
        last_clean = g;
    }
    None // no step found within the sweep (e.g. bus sleep disabled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netem::{LinkNode, LinkParams, ServerConfig, ServerNode};
    use phone::{PhoneNode, RuntimeKind};
    use simcore::{Sim, SimTime};

    #[test]
    fn estimate_from_synthetic_step() {
        let mut samples = Vec::new();
        for gap in [10u64, 30, 40, 60, 80] {
            for _ in 0..5 {
                let rtt = if gap >= 60 { 42.0 } else { 31.0 };
                samples.push(GapSample {
                    gap_ms: gap,
                    rtt_ms: rtt,
                });
            }
        }
        let est = estimate_tis(&samples, 3.0).unwrap();
        assert_eq!(est.tis_ms, 50.0); // midpoint of 40 and 60
        assert_eq!(est.baseline_ms, 31.0);
        assert!(est.recommended_db_ms < est.tis_ms);
    }

    #[test]
    fn no_step_returns_none() {
        let samples: Vec<GapSample> = (0..20)
            .map(|i| GapSample {
                gap_ms: 10 * (i % 5 + 1),
                rtt_ms: 30.0 + (i % 3) as f64 * 0.2,
            })
            .collect();
        assert!(estimate_tis(&samples, 3.0).is_none());
        assert!(estimate_tis(&[], 3.0).is_none());
    }

    #[test]
    fn training_run_discovers_nexus5_tis() {
        let mut sim = Sim::new(41);
        let server = sim.add_node(Box::new(ServerNode::new(
            50,
            ServerConfig::standard(phone::wired_ip(1)),
        )));
        let link = sim.add_node(Box::new(LinkNode::new(LinkParams::delay_ms(10))));
        let mut ph = PhoneNode::new(1, phone::nexus5(), phone::wlan_ip(100), link);
        let app = ph.install_app(
            Box::new(TimeoutInferApp::new(TimeoutInferConfig::standard(
                phone::wired_ip(1),
            ))),
            RuntimeKind::Native,
        );
        let phone_id = sim.add_node(Box::new(ph));
        sim.node_mut::<LinkNode>(link).connect(phone_id, server);
        sim.run_until(SimTime::from_secs(60));
        let infer = sim.node::<PhoneNode>(phone_id).app::<TimeoutInferApp>(app);
        assert!(
            infer.done,
            "sweep incomplete: {} samples",
            infer.samples.len()
        );
        let est = estimate_tis(&infer.samples, 3.0).expect("a step must exist");
        // True Tis is 50 ms; the sweep brackets it between 45 and 55.
        assert!(
            (45.0..=55.0).contains(&est.tis_ms),
            "tis estimate {}",
            est.tis_ms
        );
        assert!(est.recommended_db_ms < 50.0);
    }
}
