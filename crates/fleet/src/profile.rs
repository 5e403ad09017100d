//! Campaign self-profiles: where the engine's wall-clock time and
//! allocations went, per phase and per stratum.
//!
//! When [`crate::RunOptions::profiler`] is enabled, the engine labels
//! every worker thread and wraps its whole loop in a `worker` root phase
//! (with `run_device` → `setup`/`des`/`fold`/`teardown` children for
//! each device it runs, and `idle` for each wait for a segment to
//! start), and labels
//! the calling thread `collector`, whose `collect` root has `wait` (for
//! a worker's state), `absorb` (one per worker per segment), `checkpoint`
//! and `progress` children. Under `des`, each device's simulator records
//! one `sim.dispatch` aggregate whose calls are its events, split into
//! one child per Fig.-1 layer (`simcore::Sim::set_profiler`). The run
//! then returns a [`CampaignProfile`]: the cross-thread phase tree, an
//! attribution ratio against the thread-time budget, and per-stratum
//! device costs.
//!
//! None of this ever enters the campaign *report* — the report is
//! deterministic, the clock is not (same rule as
//! `RunStats`): a profiled run's JSON is byte-identical to an
//! unprofiled one.

use obs::{Json, ProfSnapshot, ToJson};

/// Wall-clock cost of one stratum's devices across the run.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumCost {
    /// Stratum (device-class) name from the spec.
    pub name: String,
    /// Devices of this stratum simulated by this run.
    pub devices: u64,
    /// Total wall nanoseconds spent inside `run_device` for them
    /// (summed across workers, so it can exceed the run's wall time).
    pub wall_ns: u64,
}

/// The self-profile of one engine run.
#[derive(Debug, Clone)]
pub struct CampaignProfile {
    /// Phase trees of every worker thread plus the collector.
    pub snapshot: ProfSnapshot,
    /// The run's wall-clock time, nanoseconds.
    pub wall_ns: u64,
    /// Threads in the attribution budget (workers + the collector).
    pub threads: usize,
    /// Per-stratum device cost, spec order.
    pub strata: Vec<StratumCost>,
}

impl CampaignProfile {
    /// The attribution budget: every thread could have been busy for
    /// the whole run.
    pub fn budget_ns(&self) -> u64 {
        self.wall_ns.saturating_mul(self.threads as u64)
    }

    /// Nanoseconds attributed to named root phases across all threads.
    pub fn attributed_ns(&self) -> u64 {
        self.snapshot.root_total_ns().min(self.budget_ns())
    }

    /// Budget time not covered by any phase (thread spawn/join skew,
    /// pre-loop setup) — the `(unattributed)` row of the table.
    pub fn unattributed_ns(&self) -> u64 {
        self.budget_ns().saturating_sub(self.attributed_ns())
    }

    /// Fraction of the thread-time budget attributed to named phases,
    /// in `[0, 1]`.
    pub fn attributed_fraction(&self) -> f64 {
        let budget = self.budget_ns();
        if budget == 0 {
            return 1.0;
        }
        self.attributed_ns() as f64 / budget as f64
    }

    /// Flamegraph-compatible folded stacks
    /// ([`ProfSnapshot::folded`]).
    pub fn folded(&self) -> String {
        self.snapshot.folded()
    }

    /// Chrome `trace_event` JSON of the per-thread span timelines.
    pub fn chrome_trace(&self) -> Json {
        obs::export::chrome_trace(&self.snapshot.chrome_spans())
    }

    /// The attribution table: the merged phase tree (time and
    /// allocation, self/total, allocations per call) with an
    /// `(unattributed)` gap row, then per-stratum device costs.
    ///
    /// The `allocs/call` column is the arena discipline's regression
    /// canary: `sim.dispatch`'s calls are engine events and its
    /// allocations the handlers', split into one row per Fig.-1 layer
    /// whose calls are the events that layer handled, so any
    /// steady-state heap traffic on the dispatch hot path shows up as a
    /// non-zero per-event rate on the layer that made it. The layer
    /// rows' time is sampled (every 64th call, scaled by 64); the
    /// queue's own cost is `des` self time; the time cut to fit a
    /// sampled total inside its phase is printed, so a preempted sample
    /// shows.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let budget = self.budget_ns().max(1);
        out.push_str(&format!(
            "{:<34} {:>10} {:>10} {:>10} {:>7} {:>10} {:>10} {:>11}\n",
            "phase", "calls", "total s", "self s", "self %", "allocs", "alloc MB", "allocs/call"
        ));
        for n in self.snapshot.merged() {
            let label = format!("{}{}", "  ".repeat(n.depth), n.name);
            out.push_str(&format!(
                "{:<34} {:>10} {:>10.3} {:>10.3} {:>6.1}% {:>10} {:>10.1} {:>11.3}\n",
                label,
                n.calls,
                n.total_ns as f64 / 1e9,
                n.self_ns as f64 / 1e9,
                100.0 * n.self_ns as f64 / budget as f64,
                n.self_allocs,
                n.self_alloc_bytes as f64 / (1024.0 * 1024.0),
                n.self_allocs as f64 / n.calls.max(1) as f64,
            ));
        }
        out.push_str(&format!(
            "{:<34} {:>10} {:>10.3} {:>10.3} {:>6.1}%\n",
            "(unattributed)",
            "",
            self.unattributed_ns() as f64 / 1e9,
            self.unattributed_ns() as f64 / 1e9,
            100.0 * self.unattributed_ns() as f64 / budget as f64,
        ));
        out.push_str(&format!(
            "\nattributed {:.1}% of a {:.2}s × {} thread budget\n",
            100.0 * self.attributed_fraction(),
            self.wall_ns as f64 / 1e9,
            self.threads,
        ));
        out.push_str(&format!(
            "cut {:.3} s of sampled layer time that outweighed its phase\n",
            self.snapshot.capped_ns() as f64 / 1e9,
        ));
        let costed: Vec<&StratumCost> = self.strata.iter().filter(|s| s.devices > 0).collect();
        if !costed.is_empty() {
            out.push_str(&format!(
                "\n{:<26} {:>9} {:>11} {:>13}\n",
                "stratum", "devices", "wall s", "ms/device"
            ));
            for s in costed {
                out.push_str(&format!(
                    "{:<26} {:>9} {:>11.3} {:>13.3}\n",
                    s.name,
                    s.devices,
                    s.wall_ns as f64 / 1e9,
                    s.wall_ns as f64 / 1e6 / s.devices as f64,
                ));
            }
        }
        out
    }
}

impl ToJson for CampaignProfile {
    fn to_json(&self) -> Json {
        let mut strata = Json::array();
        for s in &self.strata {
            let mut obj = Json::object();
            obj.set("stratum", &s.name);
            obj.set("devices", s.devices);
            obj.set("wall_ns", s.wall_ns);
            strata.push(obj);
        }
        let mut doc = Json::object();
        doc.set("format", "acutemon-campaign-profile");
        doc.set("wall_ns", self.wall_ns);
        doc.set("threads", self.threads as u64);
        doc.set("attributed_ns", self.attributed_ns());
        doc.set("unattributed_ns", self.unattributed_ns());
        doc.set("attributed_fraction", self.attributed_fraction());
        doc.set("capped_ns", self.snapshot.capped_ns());
        doc.set("strata", strata);
        doc.set("profile", self.snapshot.to_json());
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Profiler;

    fn sample_profile() -> CampaignProfile {
        let p = Profiler::new();
        {
            let _w = p.phase("worker");
            let _d = p.phase("run_device");
        }
        CampaignProfile {
            snapshot: p.snapshot(),
            wall_ns: 1_000_000_000,
            threads: 2,
            strata: vec![
                StratumCost {
                    name: "wifi_psm".to_string(),
                    devices: 10,
                    wall_ns: 500_000_000,
                },
                StratumCost {
                    name: "idle".to_string(),
                    devices: 0,
                    wall_ns: 0,
                },
            ],
        }
    }

    #[test]
    fn attribution_math_is_consistent() {
        let prof = sample_profile();
        assert_eq!(prof.budget_ns(), 2_000_000_000);
        assert_eq!(
            prof.attributed_ns() + prof.unattributed_ns(),
            prof.budget_ns()
        );
        let f = prof.attributed_fraction();
        assert!((0.0..=1.0).contains(&f), "{f}");
    }

    #[test]
    fn render_includes_gap_row_and_strata() {
        let text = sample_profile().render();
        assert!(text.contains("worker"), "{text}");
        assert!(text.contains("  run_device"), "{text}");
        assert!(text.contains("(unattributed)"), "{text}");
        assert!(text.contains("cut 0.000 s of sampled layer time"), "{text}");
        assert!(text.contains("wifi_psm"), "{text}");
        // Zero-device strata are omitted rather than rendered as NaN.
        assert!(!text.contains("idle"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn profile_json_is_well_formed() {
        let doc = sample_profile().to_json();
        assert_eq!(
            doc.get("format").and_then(Json::as_str),
            Some("acutemon-campaign-profile")
        );
        let text = doc.to_string_pretty();
        assert!(Json::parse(&text).is_ok());
        assert!(doc.get("attributed_fraction").unwrap().as_f64().is_some());
    }
}
