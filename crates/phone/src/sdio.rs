//! The SDIO/SMD host-bus sleep state machine (§3.2.1).
//!
//! The `bcmdhd` driver keeps a watchdog-driven idle counter; after
//! `idletime` ticks (50 ms by default) it puts the bus to sleep. The next
//! TX or RX must then wait for the bus to wake — the ~10–14 ms promotion
//! delay the paper measures in Table 3 and identifies as the dominant
//! in-phone inflation. Qualcomm's `wcnss`/SMD has the same mechanism with
//! smaller wake costs.
//!
//! The machine is evaluated lazily: the bus is asleep iff more than `Tis`
//! has elapsed since the last activity. A pending wake future-dates the
//! activity clock so concurrent operations during the wake window don't
//! sample a second wake. Awake time is accumulated for the energy proxy.

use obs::{Hist, Snapshot};
use simcore::{SimDuration, SimTime};

/// Energy/usage counters for the bus.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BusStats {
    /// Sleep → awake transitions.
    pub wakeups: u64,
    /// Wakes after earlier activity: the bus had demoted (lazily) in
    /// between.
    pub demotions: u64,
    /// Operations served with the bus already awake.
    pub ops_awake: u64,
    /// Operations that had to wake the bus.
    pub ops_asleep: u64,
    /// Accumulated awake time in ns (energy proxy).
    pub awake_ns: u64,
    /// Promotion (wake) latency paid by operations that found the bus
    /// asleep, ms — the ∆dk−v driver cost of Table 3.
    pub wake_latency_ms: Hist,
}

/// The host-bus sleep state machine.
#[derive(Debug, Clone)]
pub struct SdioBus {
    /// Whether the sleep feature is enabled (the paper disables it by
    /// patching `dhdsdio_bussleep`; Table 3 and Fig. 9 need that switch).
    sleep_enabled: bool,
    tis: SimDuration,
    /// Time of the most recent bus activity; future-dated while waking.
    last_activity: SimTime,
    /// Whether any activity has happened yet (bus starts asleep).
    ever_active: bool,
    /// Public counters.
    pub stats: BusStats,
}

impl SdioBus {
    /// Create a bus with demotion timeout `tis`. The bus starts asleep.
    pub fn new(tis: SimDuration, sleep_enabled: bool) -> SdioBus {
        SdioBus {
            sleep_enabled,
            tis,
            last_activity: SimTime::ZERO,
            ever_active: false,
            stats: BusStats::default(),
        }
    }

    /// Write the bus's counts into `out` as `phone.sdio.*`.
    pub fn export(&self, out: &mut Snapshot) {
        let s = &self.stats;
        out.add_counter("phone.sdio.wakeups", s.wakeups);
        out.add_counter("phone.sdio.demotions", s.demotions);
        out.add_counter("phone.sdio.ops_awake", s.ops_awake);
        out.add_counter("phone.sdio.ops_asleep", s.ops_asleep);
        out.merge_histogram("phone.sdio.wake_latency_ms", &s.wake_latency_ms);
    }

    /// The demotion timeout.
    pub fn tis(&self) -> SimDuration {
        self.tis
    }

    /// Whether sleeping is enabled.
    pub fn sleep_enabled(&self) -> bool {
        self.sleep_enabled
    }

    /// Enable/disable the sleep feature (kernel patch switch).
    pub fn set_sleep_enabled(&mut self, on: bool) {
        self.sleep_enabled = on;
    }

    /// Is the bus awake at `now`?
    pub fn is_awake(&self, now: SimTime) -> bool {
        if !self.sleep_enabled {
            return true;
        }
        if !self.ever_active {
            return false;
        }
        now.saturating_since(self.last_activity) < self.tis
    }

    /// Record a bus operation at `now` that completes at `ready_at`
    /// (`ready_at > now` while a wake is in progress). Returns whether the
    /// operation found the bus asleep.
    pub fn touch(&mut self, now: SimTime, ready_at: SimTime) -> bool {
        let was_asleep = !self.is_awake(now);
        if was_asleep {
            self.stats.wakeups += 1;
            if self.ever_active {
                // Finding the bus asleep after activity means a demotion
                // (lazy) happened in between.
                self.stats.demotions += 1;
            }
            self.stats
                .wake_latency_ms
                .observe(ready_at.saturating_since(now).as_nanos() as f64 / 1e6);
            self.stats.ops_asleep += 1;
        } else {
            self.stats.ops_awake += 1;
            if self.ever_active {
                // Extend the awake account by the idle gap we stayed up
                // (capped at Tis — beyond that we'd have slept).
                let gap = now.saturating_since(self.last_activity).as_nanos();
                self.stats.awake_ns += gap.min(self.tis.as_nanos());
            }
        }
        // Time spent completing this operation (including any wake) is
        // awake time.
        self.stats.awake_ns += ready_at.saturating_since(now).as_nanos();
        self.ever_active = true;
        self.last_activity = self.last_activity.max(ready_at);
        was_asleep
    }

    /// When the bus will demote to sleep if nothing else happens (`None`
    /// when sleeping is disabled or it never woke).
    pub fn demotion_at(&self) -> Option<SimTime> {
        if !self.sleep_enabled || !self.ever_active {
            return None;
        }
        Some(self.last_activity + self.tis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn starts_asleep() {
        let bus = SdioBus::new(SimDuration::from_millis(50), true);
        assert!(!bus.is_awake(SimTime::ZERO));
        assert!(!bus.is_awake(t(1000)));
        assert_eq!(bus.demotion_at(), None);
    }

    #[test]
    fn wakes_on_touch_and_demotes_after_tis() {
        let mut bus = SdioBus::new(SimDuration::from_millis(50), true);
        let asleep = bus.touch(t(100), t(110)); // wake takes 10 ms
        assert!(asleep);
        assert!(bus.is_awake(t(120)));
        assert!(bus.is_awake(t(159)));
        // Demotion 50 ms after the operation completed at 110.
        assert_eq!(bus.demotion_at(), Some(t(160)));
        assert!(!bus.is_awake(t(160)));
    }

    #[test]
    fn activity_resets_demotion() {
        let mut bus = SdioBus::new(SimDuration::from_millis(50), true);
        bus.touch(t(0), t(10));
        bus.touch(t(40), t(40));
        assert_eq!(bus.demotion_at(), Some(t(90)));
        assert!(bus.is_awake(t(89)));
        assert!(!bus.is_awake(t(90)));
    }

    #[test]
    fn disabled_sleep_is_always_awake() {
        let mut bus = SdioBus::new(SimDuration::from_millis(50), false);
        assert!(bus.is_awake(SimTime::ZERO));
        assert!(!bus.touch(t(5), t(5)));
        assert!(bus.is_awake(t(10_000)));
        assert_eq!(bus.demotion_at(), None);
        assert_eq!(bus.stats.wakeups, 0);
    }

    #[test]
    fn toggle_sleep_feature() {
        let mut bus = SdioBus::new(SimDuration::from_millis(50), true);
        bus.touch(t(0), t(10));
        assert!(!bus.is_awake(t(200)));
        bus.set_sleep_enabled(false);
        assert!(bus.is_awake(t(200)));
        bus.set_sleep_enabled(true);
        assert!(!bus.is_awake(t(200)));
    }

    #[test]
    fn counters_track_sleep_hits() {
        let mut bus = SdioBus::new(SimDuration::from_millis(50), true);
        assert!(bus.touch(t(0), t(10))); // asleep -> wake
        assert!(!bus.touch(t(20), t(20))); // awake
        assert!(!bus.touch(t(60), t(60))); // still awake (idle 40 < 50)
        assert!(bus.touch(t(200), t(211))); // demoted, wake again
        assert_eq!(bus.stats.wakeups, 2);
        assert_eq!(bus.stats.ops_asleep, 2);
        assert_eq!(bus.stats.ops_awake, 2);
    }

    #[test]
    fn future_dated_wake_covers_concurrent_ops() {
        let mut bus = SdioBus::new(SimDuration::from_millis(50), true);
        bus.touch(t(100), t(112)); // waking until 112
                                   // A second operation lands mid-wake: bus counts as awake (it will
                                   // ride the same wake), no second wake.
        assert!(bus.is_awake(t(105)));
        assert!(!bus.touch(t(105), t(112)));
        assert_eq!(bus.stats.wakeups, 1);
    }

    #[test]
    fn awake_time_accumulates() {
        let mut bus = SdioBus::new(SimDuration::from_millis(50), true);
        bus.touch(t(0), t(10));
        bus.touch(t(30), t(31));
        assert!(bus.stats.awake_ns > 0);
    }
}
