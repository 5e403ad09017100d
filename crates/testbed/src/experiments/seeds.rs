//! Seed-sweep robustness: a simulation-based reproduction is only
//! credible if its claims hold across random seeds, not just the one that
//! was reported. This harness re-runs the headline comparison (AcuteMon
//! vs 1-s ping on a Nexus 5 over a 50 ms path) across many seeds and
//! summarizes the distribution of the per-run medians.

use acutemon::{AcuteMonApp, AcuteMonConfig};
use am_stats::{median, Summary};
use measure::{Baseline, BaselineApp, RecordSet};
use obs::ToJson;
use phone::{PhoneNode, RuntimeKind};
use simcore::{SimDuration, SimTime};

use crate::{addr, Testbed, TestbedConfig};

/// Per-seed outcome.
#[derive(Debug, Clone, ToJson)]
pub struct SeedOutcome {
    /// The seed.
    pub seed: u64,
    /// AcuteMon median overhead (ms over the emulated RTT).
    pub acutemon_overhead_ms: f64,
    /// 1-s ping median overhead (ms).
    pub ping_overhead_ms: f64,
}

/// The sweep result.
#[derive(Debug, ToJson)]
pub struct SeedSweep {
    /// Per-seed outcomes.
    pub outcomes: Vec<SeedOutcome>,
}

/// Run the sweep: `n_seeds` independent repetitions, `k` probes per arm.
pub fn run(n_seeds: u64, k: u32) -> SeedSweep {
    let rtt = 50u64;
    let outcomes = (0..n_seeds)
        .map(|seed| {
            let mut tb = Testbed::build(TestbedConfig::new(1000 + seed * 7, phone::nexus5(), rtt));
            let app = tb.install_app(
                Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, k))),
                RuntimeKind::Native,
            );
            tb.run_until(SimTime::from_secs(30));
            let am_du = tb
                .sim
                .node::<PhoneNode>(tb.phone)
                .app::<AcuteMonApp>(app)
                .records
                .du();

            let mut tb2 = Testbed::build(TestbedConfig::new(2000 + seed * 7, phone::nexus5(), rtt));
            let app2 = tb2.install_app(
                Box::new(BaselineApp::new(
                    Baseline::Ping,
                    addr::SERVER,
                    k,
                    SimDuration::from_secs(1),
                )),
                RuntimeKind::Native,
            );
            tb2.run_until(SimTime::from_secs(u64::from(k) + 10));
            let ping_du = tb2
                .sim
                .node::<PhoneNode>(tb2.phone)
                .app::<BaselineApp>(app2)
                .records
                .du();

            SeedOutcome {
                seed,
                acutemon_overhead_ms: median(&am_du).unwrap_or(f64::NAN) - rtt as f64,
                ping_overhead_ms: median(&ping_du).unwrap_or(f64::NAN) - rtt as f64,
            }
        })
        .collect();
    SeedSweep { outcomes }
}

impl SeedSweep {
    /// Summaries over seeds: (AcuteMon, ping, gap).
    pub fn summaries(&self) -> (Summary, Summary, Summary) {
        let am: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| o.acutemon_overhead_ms)
            .collect();
        let ping: Vec<f64> = self.outcomes.iter().map(|o| o.ping_overhead_ms).collect();
        let gap: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| o.ping_overhead_ms - o.acutemon_overhead_ms)
            .collect();
        (
            Summary::of(&am).expect("seeds"),
            Summary::of(&ping).expect("seeds"),
            Summary::of(&gap).expect("seeds"),
        )
    }

    /// Render the distribution summary.
    pub fn render(&self) -> String {
        let (am, ping, gap) = self.summaries();
        format!(
            "Seed sweep over {} seeds (Nexus 5, 50 ms path, median overheads):\n\
             \x20 AcuteMon overhead: {} ms (range {:.2}..{:.2})\n\
             \x20 1s-ping overhead:  {} ms (range {:.2}..{:.2})\n\
             \x20 gap (ping−am):     {} ms (range {:.2}..{:.2})\n",
            self.outcomes.len(),
            am.cell(),
            am.min,
            am.max,
            ping.cell(),
            ping.min,
            ping.max,
            gap.cell(),
            gap.min,
            gap.max,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_holds_for_every_seed() {
        let sweep = run(8, 20);
        assert_eq!(sweep.outcomes.len(), 8);
        for o in &sweep.outcomes {
            assert!(
                o.acutemon_overhead_ms < 3.5,
                "seed {}: AcuteMon overhead {}",
                o.seed,
                o.acutemon_overhead_ms
            );
            assert!(
                o.ping_overhead_ms > o.acutemon_overhead_ms + 10.0,
                "seed {}: ping {} vs am {}",
                o.seed,
                o.ping_overhead_ms,
                o.acutemon_overhead_ms
            );
        }
        let (am, _, gap) = sweep.summaries();
        // The over-seeds spread of AcuteMon's overhead is sub-millisecond.
        assert!(am.std < 1.0, "std {}", am.std);
        assert!(gap.mean > 15.0, "gap {}", gap.mean);
    }
}
