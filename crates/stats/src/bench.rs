//! A minimal wall-clock benchmark harness.
//!
//! The workspace builds offline, so instead of an external bench
//! framework the timing loop is [`Harness`]: adaptive iteration counts,
//! per-iteration samples kept in full, and a min/p50/mean summary per
//! benchmark. The `repro bench-snapshot` mode uses it to write
//! machine-readable medians.

use std::hint::black_box;
use std::time::{Duration, Instant};

use obs::ToJson;

use crate::quantile::quantile;

/// Probe budget used per bench iteration — small enough to take many
/// samples, large enough to exercise every code path.
pub const BENCH_K: u32 = 10;

/// Seed used by all benches (determinism makes timings comparable).
pub const BENCH_SEED: u64 = 2016;

/// Summary of one benchmark: wall-clock latencies in nanoseconds.
#[derive(Debug, Clone, ToJson)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Iterations timed.
    pub iters: u64,
    /// Fastest iteration, ns.
    pub min_ns: f64,
    /// Median iteration, ns.
    pub p50_ns: f64,
    /// Mean iteration, ns.
    pub mean_ns: f64,
}

/// The benchmark harness.
///
/// Each benchmark warms up once, then runs iterations until `budget`
/// wall time is spent (at least `min_iters`, at most `max_iters`),
/// keeping every per-iteration latency, so the median is the R type-7
/// [`quantile`] of the samples themselves.
pub struct Harness {
    suite: String,
    budget: Duration,
    min_iters: u32,
    max_iters: u32,
    results: Vec<BenchResult>,
}

impl Harness {
    /// A harness for the named suite with default settings
    /// (~300 ms, 5–200 iterations per benchmark).
    pub fn new(suite: &str) -> Harness {
        Harness {
            suite: suite.to_string(),
            budget: Duration::from_millis(300),
            min_iters: 5,
            max_iters: 200,
            results: Vec::new(),
        }
    }

    /// Override the per-benchmark time budget.
    pub fn with_budget(mut self, budget: Duration) -> Harness {
        self.budget = budget;
        self
    }

    /// Time `f`, recording one [`BenchResult`].
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        black_box(f()); // warm-up (also faults in lazy state)
        let mut samples_ns = Vec::with_capacity(self.max_iters as usize);
        let started = Instant::now();
        while samples_ns.len() < self.min_iters as usize
            || (started.elapsed() < self.budget && samples_ns.len() < self.max_iters as usize)
        {
            let t = Instant::now();
            black_box(f());
            samples_ns.push(t.elapsed().as_nanos() as f64);
        }
        self.results.push(BenchResult {
            name: name.to_string(),
            iters: samples_ns.len() as u64,
            min_ns: samples_ns.iter().copied().fold(f64::INFINITY, f64::min),
            p50_ns: quantile(&samples_ns, 0.5).expect("at least one iteration"),
            mean_ns: samples_ns.iter().sum::<f64>() / samples_ns.len() as f64,
        });
    }

    /// The results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Print the suite summary table.
    pub fn finish(self) {
        println!("\n== {} ==", self.suite);
        for r in &self.results {
            println!(
                "{:<36} {:>5} iters  min {:>12.3} µs  p50 {:>12.3} µs  mean {:>12.3} µs",
                r.name,
                r.iters,
                r.min_ns / 1e3,
                r.p50_ns / 1e3,
                r.mean_ns / 1e3
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_records_adaptive_iterations() {
        let mut h = Harness::new("test").with_budget(Duration::from_millis(5));
        h.bench("spin", || std::hint::black_box(1 + 1));
        let rs = h.results();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].name, "spin");
        assert!(rs[0].iters >= 5, "at least min_iters: {}", rs[0].iters);
        assert!(rs[0].iters <= 200);
        assert!(rs[0].min_ns <= rs[0].p50_ns);
        assert!(rs[0].p50_ns >= 0.0 && rs[0].mean_ns >= 0.0);
    }
}
