//! Deterministic fault injection for the testbed.
//!
//! A [`FaultPlan`] describes the faults one component should inject —
//! loss (Bernoulli or bursty Gilbert–Elliott), reordering, duplication,
//! extra jitter, and timed link-flap windows — and a [`FaultState`] is
//! the running instance of a plan: it carries the Gilbert–Elliott channel
//! state and a private [`DetRng`] stream per direction, so the verdict
//! sequence is a pure function of the plan (including its seed) and the
//! order of packets offered. Two runs with the same plan and the same
//! traffic replay byte-identically, independent of the engine's shared
//! RNG stream — adding a fault plan to one link never perturbs the draws
//! of any other component.
//!
//! The plan is consumed by [`LinkNode`](crate::LinkNode),
//! [`SwitchNode`](crate::SwitchNode), [`ServerNode`](crate::ServerNode)
//! and (for post-MAC wireless loss) `phy80211::MediumNode`; the topology
//! builders in `testbed` expose per-scenario knobs.
//!
//! ```
//! use netem::{FaultPlan, FaultState, FaultVerdict};
//! use simcore::SimTime;
//!
//! let plan = FaultPlan::gilbert_elliott(0.2, 4.0).with_seed(7);
//! let mut state = FaultState::new(&plan);
//! match state.decide(0, SimTime::ZERO) {
//!     FaultVerdict::Drop(reason) => println!("lost ({reason:?})"),
//!     FaultVerdict::Deliver { copies, extra_delay } => {
//!         println!("{copies} copies after +{extra_delay}");
//!     }
//! }
//! ```

use obs::{Counter, Registry};
use simcore::{Ctx, DetRng, SimDuration, SimTime};
use wire::Msg;

/// Emit a zero-length `lost` span under the packet's trace (if any), so
/// injected drops show up in the span waterfall instead of vanishing
/// silently. `layer` names the component that ate the packet ("link",
/// "switch", "server", "medium").
pub fn trace_drop(ctx: &mut Ctx<'_, Msg>, packet_id: u64, layer: &'static str, reason: DropReason) {
    let now = ctx.now().as_nanos();
    let tracer = ctx.tracer();
    if let Some(tc) = tracer.packet_ctx(packet_id) {
        let span = tracer.span(tc.trace, Some(tc.root), "lost", "fault", now, now);
        tracer.attr(span, "layer", layer);
        tracer.attr(
            span,
            "reason",
            match reason {
                DropReason::Loss => "loss",
                DropReason::Flap => "flap",
            },
        );
    }
}

/// The loss process of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No loss.
    None,
    /// Independent per-packet loss with probability `p`.
    Bernoulli(f64),
    /// The classic two-state bursty-loss channel: packets are lost with
    /// `loss_good` in the good state and `loss_bad` in the bad state; the
    /// chain moves good→bad with `p_good_to_bad` and bad→good with
    /// `p_bad_to_good` per packet.
    GilbertElliott {
        /// Transition probability good→bad, per packet.
        p_good_to_bad: f64,
        /// Transition probability bad→good, per packet.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// The long-run average loss rate of the model.
    pub fn mean_loss(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli(p) => p.clamp(0.0, 1.0),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                // Stationary distribution of the two-state chain.
                let denom = p_good_to_bad + p_bad_to_good;
                if denom <= 0.0 {
                    return loss_good;
                }
                let pi_bad = p_good_to_bad / denom;
                (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
            }
        }
    }
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The loss process fired (random loss).
    Loss,
    /// The packet fell inside a link-flap window (deterministic outage).
    Flap,
}

/// The per-packet decision of a [`FaultState`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultVerdict {
    /// The packet is dropped. It is delivered zero times — a packet is
    /// never both lost and delivered.
    Drop(DropReason),
    /// The packet is delivered `copies` times (1 normally, 2 when the
    /// duplication process fired), the first copy after `extra_delay`
    /// beyond the component's nominal latency (reordering/jitter).
    Deliver {
        /// Number of deliveries (≥ 1; 2 = duplicated).
        copies: u8,
        /// Extra latency added to the nominal delivery time.
        extra_delay: SimDuration,
    },
}

impl FaultVerdict {
    /// Whether the packet is dropped.
    pub fn is_drop(&self) -> bool {
        matches!(self, FaultVerdict::Drop(_))
    }
}

/// A declarative fault specification for one component (link direction,
/// switch, server, or wireless medium). Everything is off by default;
/// build the faults you want with the `with_*` builders.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The loss process.
    pub loss: LossModel,
    /// Probability a delivered packet is reordered: it is held back by
    /// `reorder_extra_ms`, letting packets behind it overtake.
    pub reorder_prob: f64,
    /// Hold-back applied to reordered packets, ms.
    pub reorder_extra_ms: f64,
    /// Probability a delivered packet is duplicated (delivered twice).
    pub duplicate_prob: f64,
    /// Extra one-way jitter (clamped normal around 0), ms, on top of the
    /// component's own latency model.
    pub jitter_std_ms: f64,
    /// Timed outage windows `[from, to)`: every packet offered inside one
    /// is dropped (`DropReason::Flap`).
    pub flaps: Vec<(SimTime, SimTime)>,
    /// Seed of the plan's private RNG streams. Two states built from
    /// equal plans produce identical verdict sequences.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a sweep baseline).
    pub fn none() -> FaultPlan {
        FaultPlan {
            loss: LossModel::None,
            reorder_prob: 0.0,
            reorder_extra_ms: 0.0,
            duplicate_prob: 0.0,
            jitter_std_ms: 0.0,
            flaps: Vec::new(),
            seed: 0,
        }
    }

    /// Independent (Bernoulli) loss at rate `p`.
    pub fn bernoulli(p: f64) -> FaultPlan {
        FaultPlan {
            loss: LossModel::Bernoulli(p),
            ..FaultPlan::none()
        }
    }

    /// Bursty Gilbert–Elliott loss with long-run rate `mean_loss` and
    /// mean bad-burst length `burst_len` packets. The bad state always
    /// loses (`loss_bad = 1`), the good state never does — the standard
    /// two-parameter Gilbert channel.
    pub fn gilbert_elliott(mean_loss: f64, burst_len: f64) -> FaultPlan {
        let mean_loss = mean_loss.clamp(0.0, 0.95);
        let burst_len = burst_len.max(1.0);
        // pi_bad = mean_loss (loss_bad = 1, loss_good = 0); the mean
        // sojourn in bad is 1/p_bg = burst_len.
        let p_bad_to_good = 1.0 / burst_len;
        let p_good_to_bad = if mean_loss >= 1.0 {
            1.0
        } else {
            p_bad_to_good * mean_loss / (1.0 - mean_loss)
        };
        FaultPlan {
            loss: LossModel::GilbertElliott {
                p_good_to_bad: p_good_to_bad.clamp(0.0, 1.0),
                p_bad_to_good: p_bad_to_good.clamp(0.0, 1.0),
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            ..FaultPlan::none()
        }
    }

    /// Builder: reorder a fraction `prob` of packets by holding them back
    /// `extra_ms`.
    pub fn with_reordering(mut self, prob: f64, extra_ms: f64) -> Self {
        self.reorder_prob = prob;
        self.reorder_extra_ms = extra_ms;
        self
    }

    /// Builder: duplicate a fraction `prob` of delivered packets.
    pub fn with_duplication(mut self, prob: f64) -> Self {
        self.duplicate_prob = prob;
        self
    }

    /// Builder: add extra jitter (std `std_ms`, clamped to `[0, 4·std]`).
    pub fn with_jitter(mut self, std_ms: f64) -> Self {
        self.jitter_std_ms = std_ms;
        self
    }

    /// Builder: add an outage window `[from, to)`.
    pub fn with_flap(mut self, from: SimTime, to: SimTime) -> Self {
        self.flaps.push((from, to));
        self
    }

    /// Builder: seed the plan's private RNG streams.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.loss != LossModel::None
            || self.reorder_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.jitter_std_ms > 0.0
            || !self.flaps.is_empty()
    }
}

/// Counters a [`FaultState`] accumulates (also exported as `fault.*`
/// metrics when [`FaultState::attach_metrics`] is called).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets offered to the fault process.
    pub offered: u64,
    /// Packets dropped by the loss process.
    pub dropped_loss: u64,
    /// Packets dropped inside a flap window.
    pub dropped_flap: u64,
    /// Packets delivered twice.
    pub duplicated: u64,
    /// Packets held back by the reordering process.
    pub reordered: u64,
}

impl FaultStats {
    /// Total drops, any reason.
    pub fn dropped(&self) -> u64 {
        self.dropped_loss + self.dropped_flap
    }
}

/// Telemetry handles (`fault.<label>.*`). Defaults to disabled no-ops.
#[derive(Default)]
struct FaultMetrics {
    dropped_loss: Counter,
    dropped_flap: Counter,
    duplicated: Counter,
    reordered: Counter,
}

impl FaultMetrics {
    fn from_registry(reg: &Registry, label: &str) -> FaultMetrics {
        FaultMetrics {
            dropped_loss: reg.counter(&format!("fault.{label}.dropped_loss")),
            dropped_flap: reg.counter(&format!("fault.{label}.dropped_flap")),
            duplicated: reg.counter(&format!("fault.{label}.duplicated")),
            reordered: reg.counter(&format!("fault.{label}.reordered")),
        }
    }
}

/// Number of independent directions a [`FaultState`] tracks (links are
/// two-sided; single-direction users pass `dir = 0`).
pub const FAULT_DIRS: usize = 2;

/// A running instance of a [`FaultPlan`]: Gilbert–Elliott channel state
/// plus a private seeded RNG per direction.
pub struct FaultState {
    plan: FaultPlan,
    /// Per-direction RNG streams, forked from the plan seed so the two
    /// directions are independent but each is individually replayable.
    rng: [DetRng; FAULT_DIRS],
    /// Per-direction Gilbert–Elliott "currently bad" flag.
    bad: [bool; FAULT_DIRS],
    /// Counters.
    pub stats: FaultStats,
    metrics: FaultMetrics,
}

impl FaultState {
    /// Instantiate a plan. Equal plans yield identical verdict streams.
    pub fn new(plan: &FaultPlan) -> FaultState {
        let mut root = DetRng::new(plan.seed ^ 0xFA17_FA17_FA17_FA17);
        let rng = [root.fork(1), root.fork(2)];
        FaultState {
            plan: plan.clone(),
            rng,
            bad: [false; FAULT_DIRS],
            stats: FaultStats::default(),
            metrics: FaultMetrics::default(),
        }
    }

    /// The plan this state runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Register `fault.<label>.*` counters in `reg`. Without this call
    /// every metric handle is a disabled no-op.
    pub fn attach_metrics(&mut self, reg: &Registry, label: &str) {
        self.metrics = FaultMetrics::from_registry(reg, label);
    }

    /// Whether `now` falls inside a flap window.
    pub fn in_flap(&self, now: SimTime) -> bool {
        self.plan.flaps.iter().any(|&(a, b)| now >= a && now < b)
    }

    fn loss_fires(&mut self, dir: usize) -> bool {
        let dir = dir % FAULT_DIRS;
        match self.plan.loss {
            LossModel::None => false,
            LossModel::Bernoulli(p) => self.rng[dir].chance(p),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                // Transition first, then sample loss in the new state, so
                // a burst begins with the packet that flipped the chain.
                let flip = if self.bad[dir] {
                    self.rng[dir].chance(p_bad_to_good)
                } else {
                    self.rng[dir].chance(p_good_to_bad)
                };
                if flip {
                    self.bad[dir] = !self.bad[dir];
                }
                let p = if self.bad[dir] { loss_bad } else { loss_good };
                self.rng[dir].chance(p)
            }
        }
    }

    /// Decide the fate of one packet offered in direction `dir` at `now`.
    ///
    /// Exactly one of the invariants holds for every offered packet:
    /// dropped (0 deliveries) or delivered `copies ≥ 1` times — never
    /// both. The RNG draw order is fixed (loss → duplicate → reorder →
    /// jitter) so verdict streams replay exactly.
    pub fn decide(&mut self, dir: usize, now: SimTime) -> FaultVerdict {
        self.stats.offered += 1;
        if self.in_flap(now) {
            self.stats.dropped_flap += 1;
            self.metrics.dropped_flap.inc();
            return FaultVerdict::Drop(DropReason::Flap);
        }
        if self.loss_fires(dir) {
            self.stats.dropped_loss += 1;
            self.metrics.dropped_loss.inc();
            return FaultVerdict::Drop(DropReason::Loss);
        }
        let dir = dir % FAULT_DIRS;
        let copies =
            if self.plan.duplicate_prob > 0.0 && self.rng[dir].chance(self.plan.duplicate_prob) {
                self.stats.duplicated += 1;
                self.metrics.duplicated.inc();
                2
            } else {
                1
            };
        let mut extra_ms = 0.0;
        if self.plan.reorder_prob > 0.0 && self.rng[dir].chance(self.plan.reorder_prob) {
            self.stats.reordered += 1;
            self.metrics.reordered.inc();
            extra_ms += self.plan.reorder_extra_ms;
        }
        if self.plan.jitter_std_ms > 0.0 {
            extra_ms += self.rng[dir].normal_clamped(
                0.0,
                self.plan.jitter_std_ms,
                0.0,
                self.plan.jitter_std_ms * 4.0,
            );
        }
        FaultVerdict::Deliver {
            copies,
            extra_delay: SimDuration::from_ms_f64(extra_ms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict_stream(plan: &FaultPlan, n: usize) -> Vec<FaultVerdict> {
        let mut st = FaultState::new(plan);
        (0..n).map(|i| st.decide(i % 2, SimTime::ZERO)).collect()
    }

    #[test]
    fn none_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        let mut st = FaultState::new(&plan);
        for _ in 0..100 {
            assert_eq!(
                st.decide(0, SimTime::ZERO),
                FaultVerdict::Deliver {
                    copies: 1,
                    extra_delay: SimDuration::ZERO
                }
            );
        }
        assert_eq!(st.stats.offered, 100);
        assert_eq!(st.stats.dropped(), 0);
    }

    #[test]
    fn gilbert_elliott_same_plan_is_byte_identical() {
        // Same plan ⇒ byte-identical event stream (the determinism
        // contract the `repro faults` sweep depends on).
        let plan = FaultPlan::gilbert_elliott(0.2, 4.0)
            .with_duplication(0.05)
            .with_reordering(0.1, 3.0)
            .with_jitter(0.5)
            .with_seed(42);
        assert_eq!(verdict_stream(&plan, 5000), verdict_stream(&plan, 5000));
        // And a different seed gives a different stream.
        let other = plan.clone().with_seed(43);
        assert_ne!(verdict_stream(&plan, 5000), verdict_stream(&other, 5000));
    }

    #[test]
    fn bernoulli_rate_is_close() {
        let plan = FaultPlan::bernoulli(0.25).with_seed(9);
        let mut st = FaultState::new(&plan);
        let n = 20_000;
        for _ in 0..n {
            st.decide(0, SimTime::ZERO);
        }
        let rate = st.stats.dropped_loss as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn gilbert_elliott_mean_rate_and_bursts() {
        let plan = FaultPlan::gilbert_elliott(0.2, 5.0).with_seed(3);
        assert!((plan.loss.mean_loss() - 0.2).abs() < 1e-9);
        let mut st = FaultState::new(&plan);
        let n = 50_000;
        let mut drops = Vec::with_capacity(n);
        for _ in 0..n {
            drops.push(st.decide(0, SimTime::ZERO).is_drop());
        }
        let rate = drops.iter().filter(|&&d| d).count() as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.03, "rate={rate}");
        // Burstiness: mean run length of consecutive drops well above 1
        // (a Bernoulli channel at the same rate would sit near 1.25).
        let mut runs = Vec::new();
        let mut cur = 0usize;
        for &d in &drops {
            if d {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        let mean_run = runs.iter().sum::<usize>() as f64 / runs.len() as f64;
        assert!(mean_run > 2.5, "mean burst {mean_run}");
    }

    #[test]
    fn drop_and_deliver_are_exclusive() {
        // No packet is both lost and delivered: every verdict is either
        // Drop (0 copies) or Deliver with copies >= 1.
        let plan = FaultPlan::gilbert_elliott(0.3, 3.0)
            .with_duplication(0.2)
            .with_reordering(0.2, 2.0)
            .with_seed(11);
        let mut st = FaultState::new(&plan);
        let mut delivered = 0u64;
        for _ in 0..10_000 {
            match st.decide(0, SimTime::ZERO) {
                FaultVerdict::Drop(_) => {}
                FaultVerdict::Deliver { copies, .. } => {
                    assert!(copies >= 1);
                    delivered += 1;
                }
            }
        }
        assert_eq!(st.stats.offered, 10_000);
        assert_eq!(delivered + st.stats.dropped(), 10_000);
        // Duplicates/reorders only happen to delivered packets.
        assert!(st.stats.duplicated <= delivered);
        assert!(st.stats.reordered <= delivered);
    }

    #[test]
    fn flap_window_drops_everything_inside() {
        let plan = FaultPlan::none()
            .with_flap(SimTime::from_millis(100), SimTime::from_millis(200))
            .with_seed(1);
        assert!(plan.is_active());
        let mut st = FaultState::new(&plan);
        assert!(!st.decide(0, SimTime::from_millis(99)).is_drop());
        assert_eq!(
            st.decide(0, SimTime::from_millis(100)),
            FaultVerdict::Drop(DropReason::Flap)
        );
        assert_eq!(
            st.decide(1, SimTime::from_millis(199)),
            FaultVerdict::Drop(DropReason::Flap)
        );
        assert!(!st.decide(0, SimTime::from_millis(200)).is_drop());
        assert_eq!(st.stats.dropped_flap, 2);
    }

    #[test]
    fn directions_are_independent_streams() {
        let plan = FaultPlan::bernoulli(0.5).with_seed(21);
        // Consuming draws in dir 0 must not change dir 1's stream.
        let mut a = FaultState::new(&plan);
        let mut b = FaultState::new(&plan);
        for _ in 0..100 {
            a.decide(0, SimTime::ZERO);
        }
        let sa: Vec<_> = (0..100).map(|_| a.decide(1, SimTime::ZERO)).collect();
        let sb: Vec<_> = (0..100).map(|_| b.decide(1, SimTime::ZERO)).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn duplication_fires_at_rate() {
        let plan = FaultPlan::none().with_duplication(0.3).with_seed(5);
        let mut st = FaultState::new(&plan);
        let mut copies = 0u64;
        for _ in 0..10_000 {
            if let FaultVerdict::Deliver { copies: c, .. } = st.decide(0, SimTime::ZERO) {
                copies += u64::from(c);
            }
        }
        let rate = (copies - 10_000) as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "dup rate={rate}");
    }

    #[test]
    fn reorder_adds_the_configured_holdback() {
        let plan = FaultPlan::none().with_reordering(1.0, 7.5).with_seed(2);
        let mut st = FaultState::new(&plan);
        match st.decide(0, SimTime::ZERO) {
            FaultVerdict::Deliver { extra_delay, .. } => {
                assert_eq!(extra_delay, SimDuration::from_us_f64(7500.0));
            }
            v => panic!("unexpected {v:?}"),
        }
        assert_eq!(st.stats.reordered, 1);
    }

    #[test]
    fn metrics_exported_under_label() {
        let reg = Registry::new();
        let plan = FaultPlan::bernoulli(1.0).with_seed(1);
        let mut st = FaultState::new(&plan);
        st.attach_metrics(&reg, "server");
        st.decide(0, SimTime::ZERO);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("fault.server.dropped_loss"), Some(1));
    }
}
