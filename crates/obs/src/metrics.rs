//! Counters, gauges, and histograms: a [`Snapshot`] of plain values,
//! and a [`Registry`] of shared cells behind clonable handles.
//!
//! The model layers count into plain fields of their own and write them
//! into a [`Snapshot`] when a run is read; a caller that aggregates runs
//! merges those snapshots into a [`Registry`]. Handles from a registry
//! are for counts that have no other home (a daemon's request counters,
//! the live driver's send lateness). `Registry::disabled()` costs
//! nothing: every handle it vends is `None` inside and every operation
//! is a single branch. An enabled registry interns metrics by name in
//! `BTreeMap`s, so snapshots are deterministically ordered and two
//! requests for the same name share one underlying cell.
//!
//! A [`Hist`] keeps fixed buckets (for the Prometheus exposition) and
//! a [`QuantileSketch`] of every observation (for the count, exact sum,
//! min, max and quantiles). Both merge by integer addition, so merging
//! snapshots is exactly associative and commutative.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{Json, ToJson};
use crate::sketch::QuantileSketch;

/// Default bucket upper bounds for millisecond-scale latencies, spanning
/// sub-ms kernel costs up to multi-second PSM stalls.
pub const DEFAULT_MS_BUCKETS: [f64; 15] = [
    0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
];

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicI64>>,
    hists: BTreeMap<String, Arc<Mutex<Hist>>>,
}

/// Handle to a metrics registry; `None` inside means disabled/no-op.
#[derive(Clone, Default)]
pub struct Registry(Option<Arc<Mutex<Inner>>>);

impl Registry {
    /// An enabled registry.
    pub fn new() -> Registry {
        Registry(Some(Arc::new(Mutex::new(Inner::default()))))
    }

    /// A disabled registry: allocates nothing, every operation no-ops.
    pub fn disabled() -> Registry {
        Registry(None)
    }

    /// Whether this registry records anything (false for
    /// [`Registry::disabled`]).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.0.as_ref().map(|inner| {
            let mut g = inner.lock().unwrap();
            g.counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .clone()
        }))
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.0.as_ref().map(|inner| {
            let mut g = inner.lock().unwrap();
            g.gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicI64::new(0)))
                .clone()
        }))
    }

    /// Get or create a histogram with the given bucket upper bounds.
    /// Bounds must be sorted ascending; an existing histogram keeps its
    /// original bounds.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        Histogram(self.0.as_ref().map(|inner| {
            let mut g = inner.lock().unwrap();
            g.hists
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(Hist::new(bounds))))
                .clone()
        }))
    }

    /// Get or create a histogram with [`DEFAULT_MS_BUCKETS`].
    pub fn histogram_ms(&self, name: &str) -> Histogram {
        self.histogram(name, &DEFAULT_MS_BUCKETS)
    }

    /// Merge a [`Snapshot`] (a run's export, or another registry's
    /// snapshot) into this registry: counters and gauges add, histograms
    /// add bucket-wise and merge their sketches (created with the
    /// snapshot's bounds when absent). No-op on a disabled registry.
    ///
    /// Every piece of state merges by exact integer addition (histogram
    /// sums via their integer-nanosecond accumulators), so the result is
    /// independent of merge order and grouping: absorbing the same
    /// snapshots in any order yields the same bytes. A name already held
    /// is looked up, not cloned, so merging a snapshot whose names are
    /// all held allocates nothing (unless a sketch gains a bucket).
    ///
    /// # Panics
    ///
    /// If a histogram in `snap` has different bounds than the one of the
    /// same name already held; [`Registry::check_merge`] tells first.
    pub fn merge_snapshot(&self, snap: &Snapshot) {
        let Some(inner) = &self.0 else { return };
        let mut g = inner.lock().unwrap();
        for (name, v) in &snap.counters {
            if let Some(c) = g.counters.get(&**name) {
                c.fetch_add(*v, Ordering::Relaxed);
            } else {
                g.counters
                    .insert(name.to_string(), Arc::new(AtomicU64::new(*v)));
            }
        }
        for (name, v) in &snap.gauges {
            if let Some(l) = g.gauges.get(&**name) {
                l.fetch_add(*v, Ordering::Relaxed);
            } else {
                g.gauges
                    .insert(name.to_string(), Arc::new(AtomicI64::new(*v)));
            }
        }
        for (name, h) in &snap.histograms {
            if let Some(cell) = g.hists.get(&**name) {
                cell.lock().unwrap().merge(h);
            } else {
                g.hists
                    .insert(name.to_string(), Arc::new(Mutex::new(h.clone())));
            }
        }
    }

    /// Whether [`Registry::merge_snapshot`] would accept `snap`: every
    /// histogram it shares a name with must have the same bounds.
    /// Read-only, so a caller can validate foreign state before it
    /// changes anything.
    pub fn check_merge(&self, snap: &Snapshot) -> Result<(), SnapshotStateError> {
        let Some(inner) = &self.0 else { return Ok(()) };
        let g = inner.lock().unwrap();
        for (name, h) in &snap.histograms {
            if let Some(cell) = g.hists.get(&**name) {
                if cell.lock().unwrap().bounds != h.bounds {
                    return Err(SnapshotStateError(format!(
                        "histogram `{name}` has different bounds than the one held"
                    )));
                }
            }
        }
        Ok(())
    }

    /// A deterministic, name-sorted snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        if let Some(inner) = &self.0 {
            let g = inner.lock().unwrap();
            for (name, c) in &g.counters {
                let v = c.load(Ordering::Relaxed);
                snap.counters.push((name.clone().into(), v));
            }
            for (name, v) in &g.gauges {
                let v = v.load(Ordering::Relaxed);
                snap.gauges.push((name.clone().into(), v));
            }
            for (name, h) in &g.hists {
                let h = h.lock().unwrap().clone();
                snap.histograms.push((name.clone().into(), h));
            }
        }
        snap
    }
}

/// Monotonic event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when vended by a disabled registry).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Instantaneous signed level (queue depth, dozing stations, ...).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Set the level to `v`.
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the level by `n`.
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Lower the level by `n`.
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current level (0 when vended by a disabled registry).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram and a sketch of every observation: the one
/// histogram implementation. A layer owns one as a plain value and
/// exports it into a [`Snapshot`]; a [`Registry`] keeps one behind each
/// [`Histogram`] handle.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    /// Bucket upper bounds, strictly ascending.
    pub(crate) bounds: Cow<'static, [f64]>,
    /// `buckets[i]` counts observations `<= bounds[i]`; the final slot
    /// is the overflow bucket (`> bounds.last()`). They sum to the
    /// sketch's count.
    pub(crate) buckets: Vec<u64>,
    /// Every observation, merged exactly: the source of the count, sum,
    /// min, max and quantiles below.
    pub(crate) sketch: QuantileSketch,
}

impl Hist {
    /// An empty histogram with the given bucket upper bounds.
    pub fn new(bounds: &[f64]) -> Hist {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Hist {
            bounds: bounds.to_vec().into(),
            buckets: vec![0; bounds.len() + 1],
            sketch: QuantileSketch::new(),
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.sketch.observe(v);
    }

    /// Add `other`'s buckets and sketch to this one.
    ///
    /// # Panics
    ///
    /// If the bounds differ.
    pub fn merge(&mut self, other: &Hist) {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with mismatched bounds"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sketch.merge(&other.sketch);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.sketch.count()
    }

    /// Sum of observations, from the sketch's integer-nanosecond
    /// accumulator (so it is identical under any merge grouping).
    pub fn sum(&self) -> f64 {
        self.sketch.sum_ns() as f64 / 1e6
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        self.sketch.min().unwrap_or(0.0)
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        self.sketch.max().unwrap_or(0.0)
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        self.sketch.mean()
    }

    /// Nearest-rank quantile over every observation, within the
    /// sketch's relative accuracy ([`crate::sketch::DEFAULT_ALPHA`]);
    /// 0 when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        self.sketch.quantile(p).unwrap_or(0.0)
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// The summary view of histogram `name`: its count, sum, min, max,
    /// mean, p50/p95/p99, bounds and buckets.
    pub fn summary_json(&self, name: &str) -> Json {
        let mut obj = Json::object();
        obj.set("name", name);
        obj.set("count", self.count());
        obj.set("sum", self.sum());
        obj.set("min", self.min());
        obj.set("max", self.max());
        obj.set("mean", self.mean());
        obj.set("p50", self.p50());
        obj.set("p95", self.p95());
        obj.set("p99", self.p99());
        obj.set("bounds", &*self.bounds);
        obj.set("buckets", &self.buckets);
        obj
    }
}

impl Default for Hist {
    /// An empty histogram with [`DEFAULT_MS_BUCKETS`].
    fn default() -> Hist {
        Hist {
            bounds: Cow::Borrowed(&DEFAULT_MS_BUCKETS),
            buckets: vec![0; DEFAULT_MS_BUCKETS.len() + 1],
            sketch: QuantileSketch::new(),
        }
    }
}

/// Handle to a registry's histogram.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<Mutex<Hist>>>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.lock().unwrap().observe(v);
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.lock().unwrap().count())
    }
}

/// A metric name: borrowed where the exporting layer's name is fixed,
/// so exporting allocates no name it already knows.
pub type MetricName = Cow<'static, str>;

/// Deterministic (name-sorted) plain values of a set of metrics: what a
/// run's layers export, what a [`Registry`] snapshots, what campaign
/// state carries.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` per counter, name-sorted.
    pub counters: Vec<(MetricName, u64)>,
    /// `(name, level)` per gauge, name-sorted.
    pub gauges: Vec<(MetricName, i64)>,
    /// `(name, histogram)` per histogram, name-sorted.
    pub histograms: Vec<(MetricName, Hist)>,
}

/// Where `name` sits in the name-sorted `list`: `Ok` at its entry, `Err`
/// where it would be inserted.
fn find<T>(list: &[(MetricName, T)], name: &str) -> Result<usize, usize> {
    list.binary_search_by(|(n, _)| (**n).cmp(name))
}

/// The value of `name` in the name-sorted `list`, inserted as 0 where it
/// is missing.
fn slot<T: Default>(list: &mut Vec<(MetricName, T)>, name: MetricName) -> &mut T {
    let i = find(list, &name).unwrap_or_else(|i| {
        list.insert(i, (name, T::default()));
        i
    });
    &mut list[i].1
}

impl Snapshot {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Level of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// State of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&Hist> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Add `v` to counter `name`, creating it in name order.
    pub fn add_counter(&mut self, name: impl Into<MetricName>, v: u64) {
        *slot(&mut self.counters, name.into()) += v;
    }

    /// Add `v` to gauge `name`, creating it in name order.
    pub fn add_gauge(&mut self, name: impl Into<MetricName>, v: i64) {
        *slot(&mut self.gauges, name.into()) += v;
    }

    /// Merge `h` into histogram `name`, which it becomes when absent.
    ///
    /// # Panics
    ///
    /// If histogram `name` is held with other bounds.
    pub fn add_histogram(&mut self, name: impl Into<MetricName>, h: Hist) {
        let name = name.into();
        match find(&self.histograms, &name) {
            Ok(i) => self.histograms[i].1.merge(&h),
            Err(i) => self.histograms.insert(i, (name, h)),
        }
    }
}

/// Version tag written into [`Snapshot::state_json`] payloads;
/// [`Snapshot::from_state_json`] reads this version only. Version 2
/// carries each histogram's sketch; version 1 carried a first-N sample
/// reservoir that cannot be turned into one.
pub const SNAPSHOT_STATE_VERSION: u64 = 2;

/// A failure to reconstruct a [`Snapshot`] from its serialized state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotStateError(pub String);

impl std::fmt::Display for SnapshotStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot state error: {}", self.0)
    }
}

impl std::error::Error for SnapshotStateError {}

impl Snapshot {
    /// Serialize the **full** snapshot state — unlike [`ToJson`], which
    /// emits a summary view (derived quantiles) — so the snapshot can be
    /// reconstructed exactly by [`Snapshot::from_state_json`] and merged
    /// into a fresh [`Registry`] without losing a bit. Each histogram
    /// carries its bounds, buckets and
    /// [`QuantileSketch::state_json`].
    ///
    /// This is the payload the fleet campaign checkpoint and
    /// partial-report formats embed: restore + continue must equal an
    /// uninterrupted run byte-for-byte.
    pub fn state_json(&self) -> Json {
        let mut counters = Json::object();
        for (name, v) in &self.counters {
            counters.set(name, *v);
        }
        let mut gauges = Json::object();
        for (name, v) in &self.gauges {
            gauges.set(name, *v as f64);
        }
        let mut hists = Json::array();
        for (name, h) in &self.histograms {
            let mut obj = Json::object();
            obj.set("name", &**name);
            obj.set("bounds", &*h.bounds);
            obj.set("buckets", &h.buckets);
            obj.set("sketch", h.sketch.state_json());
            hists.push(obj);
        }
        let mut obj = Json::object();
        obj.set("version", SNAPSHOT_STATE_VERSION);
        obj.set("counters", counters);
        obj.set("gauges", gauges);
        obj.set("histograms", hists);
        obj
    }

    /// Reconstruct a snapshot from [`Snapshot::state_json`] output. The
    /// round trip is exact: merging the result into a registry produces
    /// the same state as merging the original. Anything a registry could
    /// not have produced — another version, a counter or bucket count
    /// that is not a non-negative integer, a fractional gauge, unsorted
    /// or repeated histogram names, bounds that do not ascend, buckets
    /// that disagree with the sketch, a sketch of another accuracy — is
    /// an error, so merging the result never panics.
    pub fn from_state_json(state: &Json) -> Result<Snapshot, SnapshotStateError> {
        let err = |msg: &str| SnapshotStateError(msg.to_string());
        // Every count is a non-negative integer; a cast would quietly
        // turn -5 into 0 and 2.5 into 2.
        let count = |v: &Json, what: &str| -> Result<u64, SnapshotStateError> {
            match v.as_f64() {
                Some(v) if v.is_finite() && v >= 0.0 && v.fract() == 0.0 => Ok(v as u64),
                _ => Err(SnapshotStateError(format!(
                    "{what} is not a non-negative integer"
                ))),
            }
        };
        let version = count(
            state.get("version").ok_or_else(|| err("missing version"))?,
            "version",
        )?;
        if version != SNAPSHOT_STATE_VERSION {
            return Err(SnapshotStateError(format!(
                "snapshot state version {version} is not supported (expected \
                 {SNAPSHOT_STATE_VERSION})"
            )));
        }
        let entries = |key: &str| -> Result<&[(String, Json)], SnapshotStateError> {
            match state.get(key) {
                Some(Json::Obj(entries)) => Ok(entries),
                _ => Err(SnapshotStateError(format!("missing {key} object"))),
            }
        };
        // Every writer emits names sorted and unique, and `add_counter`
        // and its kin binary-search on that order.
        fn follows<T>(list: &[(MetricName, T)], name: &str) -> bool {
            list.last().is_none_or(|(prev, _)| **prev < *name)
        }
        let mut snap = Snapshot::default();
        for (name, v) in entries("counters")? {
            if !follows(&snap.counters, name) {
                return Err(SnapshotStateError(format!(
                    "counter `{name}`: counter names must be sorted and unique"
                )));
            }
            let v = count(v, &format!("counter `{name}`"))?;
            snap.counters.push((name.clone().into(), v));
        }
        for (name, v) in entries("gauges")? {
            if !follows(&snap.gauges, name) {
                return Err(SnapshotStateError(format!(
                    "gauge `{name}`: gauge names must be sorted and unique"
                )));
            }
            let v = match v.as_f64() {
                Some(v) if v.is_finite() && v.fract() == 0.0 => v as i64,
                _ => {
                    return Err(SnapshotStateError(format!(
                        "gauge `{name}` is not an integer"
                    )))
                }
            };
            snap.gauges.push((name.clone().into(), v));
        }
        fn array<'a>(h: &'a Json, key: &str) -> Result<&'a [Json], SnapshotStateError> {
            h.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| SnapshotStateError(format!("missing {key} array")))
        }
        for h in state
            .get("histograms")
            .and_then(Json::as_arr)
            .ok_or_else(|| err("missing histograms array"))?
        {
            let name = h
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| err("missing histogram name"))?
                .to_string();
            let bad = |msg: &str| SnapshotStateError(format!("histogram `{name}`: {msg}"));
            if !follows(&snap.histograms, &name) {
                return Err(bad("histogram names must be sorted and unique"));
            }
            let bounds = array(h, "bounds")?
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| bad("bounds entry not a number")))
                .collect::<Result<Vec<f64>, _>>()?;
            if !bounds.windows(2).all(|w| w[0] < w[1]) {
                return Err(bad("bounds must be strictly ascending"));
            }
            let buckets = array(h, "buckets")?
                .iter()
                .map(|v| count(v, &format!("histogram `{name}`: a bucket count")))
                .collect::<Result<Vec<u64>, _>>()?;
            if buckets.len() != bounds.len() + 1 {
                return Err(bad("bucket count must be bounds + 1"));
            }
            let sketch = QuantileSketch::from_state_json(
                h.get("sketch").ok_or_else(|| bad("missing sketch"))?,
            )
            .map_err(|e| bad(&e.0))?;
            if !sketch.mergeable_with(&QuantileSketch::new()) {
                return Err(bad("sketch accuracy is not the default"));
            }
            if buckets.iter().sum::<u64>() != sketch.count() {
                return Err(bad("bucket counts disagree with the sketch"));
            }
            let hist = Hist {
                bounds: bounds.into(),
                buckets,
                sketch,
            };
            snap.histograms.push((name.into(), hist));
        }
        Ok(snap)
    }
}

impl ToJson for Snapshot {
    fn to_json(&self) -> Json {
        let mut counters = Json::object();
        for (name, v) in &self.counters {
            counters.set(name, *v);
        }
        let mut gauges = Json::object();
        for (name, v) in &self.gauges {
            gauges.set(name, *v);
        }
        let mut hists = Json::array();
        for (name, h) in &self.histograms {
            hists.push(h.summary_json(name));
        }
        let mut obj = Json::object();
        obj.set("counters", counters);
        obj.set("gauges", gauges);
        obj.set("histograms", hists);
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::DEFAULT_ALPHA;

    #[test]
    fn disabled_registry_is_a_noop() {
        let r = Registry::disabled();
        let c = r.counter("x");
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = r.gauge("y");
        g.set(5);
        assert_eq!(g.get(), 0);
        let h = r.histogram_ms("z");
        h.observe(1.0);
        assert_eq!(h.count(), 0);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn same_name_shares_one_cell() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("a").add(2);
        assert_eq!(r.counter("a").get(), 3);
        assert_eq!(r.snapshot().counter("a"), Some(3));
    }

    #[test]
    fn bucket_boundaries_are_le() {
        let r = Registry::new();
        let h = r.histogram("h", &[1.0, 10.0]);
        for v in [0.5, 1.0, 1.0001, 10.0, 11.0] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("h").unwrap();
        // <=1: {0.5, 1.0}; <=10: {1.0001, 10.0}; >10: {11.0}
        assert_eq!(hs.buckets, vec![2, 2, 1]);
        assert_eq!(hs.count(), 5);
        assert_eq!(hs.min(), 0.5);
        assert_eq!(hs.max(), 11.0);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.counter("zeta").inc();
        r.counter("alpha").inc();
        r.gauge("mid").set(1);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| &**n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn quantiles_track_the_whole_population() {
        // Far past the 4,096 observations a first-N reservoir would keep
        // (it reported p50 2,048.5 and p99 4,055.05 here).
        let r = Registry::new();
        let h = r.histogram("q", &[100.0]);
        for v in 1..=10_000 {
            h.observe(v as f64);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("q").unwrap();
        for (got, rank) in [(hs.p50(), 5_000.0), (hs.p99(), 9_900.0)] {
            // Nearest rank, within the sketch's relative accuracy plus
            // one rank either way.
            let (lo, hi) = (rank - 1.0, rank + 1.0);
            assert!(
                got >= lo * (1.0 - DEFAULT_ALPHA) && got <= hi * (1.0 + DEFAULT_ALPHA),
                "{got} vs rank {rank}"
            );
        }
        assert!((hs.quantile(0.0) - 1.0).abs() <= DEFAULT_ALPHA);
        assert!(hs.quantile(1.0) <= 10_000.0, "clamped to the exact max");
        assert!(hs.quantile(1.0) >= 10_000.0 * (1.0 - DEFAULT_ALPHA));
        assert_eq!(hs.count(), 10_000);
        assert_eq!(hs.sum(), 50_005_000.0);
        // An empty histogram still reports zeros.
        r.histogram("empty", &[1.0]);
        let empty = r.snapshot();
        let e = empty.histogram("empty").unwrap();
        assert_eq!((e.p50(), e.p99(), e.min(), e.max()), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn merge_snapshot_equals_direct_ingest() {
        // Two shard registries vs one registry fed everything: merged
        // snapshots must agree exactly (integer-valued observations so
        // even the float sums are exact).
        let shard_a = Registry::new();
        let shard_b = Registry::new();
        let direct = Registry::new();
        for v in [1u64, 3, 7] {
            shard_a.counter("probes").add(v);
            direct.counter("probes").add(v);
        }
        shard_b.counter("probes").add(5);
        direct.counter("probes").add(5);
        shard_b.counter("only_b").inc();
        direct.counter("only_b").inc();
        shard_a.gauge("depth").add(4);
        direct.gauge("depth").add(4);
        for v in [2.0f64, 8.0, 64.0] {
            shard_a.histogram_ms("du_ms").observe(v);
            direct.histogram_ms("du_ms").observe(v);
        }
        shard_b.histogram_ms("du_ms").observe(16.0);
        direct.histogram_ms("du_ms").observe(16.0);

        let merged = Registry::new();
        merged.merge_snapshot(&shard_a.snapshot());
        merged.merge_snapshot(&shard_b.snapshot());
        assert_eq!(
            merged.snapshot().to_json().to_string(),
            direct.snapshot().to_json().to_string()
        );
    }

    #[test]
    fn merge_snapshot_is_order_independent_for_integer_state() {
        let shards: Vec<Registry> = (0..4)
            .map(|i| {
                let r = Registry::new();
                r.counter("c").add(i + 1);
                r.histogram("h", &[10.0, 100.0]).observe((3 * i + 1) as f64);
                r
            })
            .collect();
        let snaps: Vec<Snapshot> = shards.iter().map(|r| r.snapshot()).collect();
        let fwd = Registry::new();
        for s in &snaps {
            fwd.merge_snapshot(s);
        }
        let rev = Registry::new();
        for s in snaps.iter().rev() {
            rev.merge_snapshot(s);
        }
        let a = fwd.snapshot();
        let b = rev.snapshot();
        assert_eq!(a.counter("c"), b.counter("c"));
        let (ha, hb) = (a.histogram("h").unwrap(), b.histogram("h").unwrap());
        assert_eq!(ha.buckets, hb.buckets);
        assert_eq!(ha.sketch, hb.sketch);
        assert_eq!(a.state_json().to_string(), b.state_json().to_string());
    }

    #[test]
    fn snapshot_state_round_trip_is_exact() {
        let r = Registry::new();
        r.counter("probes").add(41);
        r.gauge("depth").set(-3);
        let h = r.histogram_ms("du_ms");
        for v in [0.125, 7.25, 3001.5] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let state = snap.state_json();
        let restored =
            Snapshot::from_state_json(&Json::parse(&state.to_string_pretty()).unwrap()).unwrap();
        assert_eq!(restored.counters, snap.counters);
        assert_eq!(restored.gauges, snap.gauges);
        assert_eq!(restored.histograms.len(), snap.histograms.len());
        let (a, b) = (&restored.histograms[0].1, &snap.histograms[0].1);
        assert_eq!(a.sketch, b.sketch);
        assert_eq!(
            restored.to_json().to_string_pretty(),
            snap.to_json().to_string_pretty()
        );
        // Restoring into a fresh registry and continuing equals the
        // uninterrupted registry exactly.
        let resumed = Registry::new();
        resumed.merge_snapshot(&restored);
        resumed.histogram_ms("du_ms").observe(42.0);
        h.observe(42.0);
        assert_eq!(
            resumed.snapshot().to_json().to_string_pretty(),
            r.snapshot().to_json().to_string_pretty()
        );
    }

    #[test]
    fn snapshot_state_rejects_newer_versions() {
        let snap = Registry::new().snapshot();
        let mut state = snap.state_json();
        state.set("version", (SNAPSHOT_STATE_VERSION + 1) as f64);
        assert!(Snapshot::from_state_json(&state).is_err());
        assert!(Snapshot::from_state_json(&Json::object()).is_err());
        // A version-1 document (first-N raw samples, no sketch) is a
        // typed error, not a silently empty histogram.
        let mut v1 = snap.state_json();
        v1.set("version", 1u64);
        let e = Snapshot::from_state_json(&v1).unwrap_err();
        assert!(e.0.contains("version 1"), "{e}");
    }

    /// Restore a state with these counter and gauge entries and no
    /// histograms.
    fn state(counters: &str, gauges: &str) -> Result<Snapshot, SnapshotStateError> {
        let doc = format!(
            r#"{{"version":2,"counters":{{{counters}}},"gauges":{{{gauges}}},"histograms":[]}}"#
        );
        Snapshot::from_state_json(&Json::parse(&doc).unwrap())
    }

    /// Counter and gauge names obey the histograms' rule: a duplicate
    /// would restore as two entries and merge as their sum, and an
    /// unsorted pair would break the binary search behind
    /// `add_counter` and `add_gauge`.
    #[test]
    fn snapshot_state_rejects_duplicate_counter_and_gauge_names() {
        assert!(state(r#""b":1,"c":2"#, r#""g":-1,"h":1"#).is_ok());
        let e = state(r#""c":1,"c":2"#, "").unwrap_err().0;
        assert!(
            e.contains("counter `c`") && e.contains("sorted and unique"),
            "{e}"
        );
        let e = state("", r#""g":1,"g":-1"#).unwrap_err().0;
        assert!(
            e.contains("gauge `g`") && e.contains("sorted and unique"),
            "{e}"
        );
    }

    #[test]
    fn snapshot_state_rejects_unsorted_counter_and_gauge_names() {
        let e = state(r#""c":1,"b":2"#, "").unwrap_err().0;
        assert!(
            e.contains("counter `b`") && e.contains("sorted and unique"),
            "{e}"
        );
        let e = state("", r#""h":1,"g":2"#).unwrap_err().0;
        assert!(
            e.contains("gauge `g`") && e.contains("sorted and unique"),
            "{e}"
        );
    }

    #[test]
    fn snapshot_state_rejects_what_no_registry_holds() {
        let r = Registry::new();
        r.histogram("a", &[1.0, 10.0]).observe(2.0);
        r.histogram("b", &[1.0]).observe(0.5);
        r.counter("c").add(3);
        r.gauge("g").set(-2);
        let good = r.snapshot().state_json();
        let tamper = |f: &dyn Fn(&mut Vec<Json>)| {
            let mut doc = good.clone();
            let mut hists = doc.get("histograms").unwrap().as_arr().unwrap().to_vec();
            f(&mut hists);
            doc.set("histograms", Json::Arr(hists));
            Snapshot::from_state_json(&doc).unwrap_err().0
        };
        let e = tamper(&|h| h.swap(0, 1));
        assert!(e.contains("sorted and unique"), "{e}");
        let e = tamper(&|h| h[1] = h[0].clone());
        assert!(e.contains("sorted and unique"), "{e}");
        let e = tamper(&|h| h[0].set("bounds", vec![10.0, 1.0]));
        assert!(e.contains("ascending"), "{e}");
        let e = tamper(&|h| h[0].set("buckets", vec![0u64, 2, 0]));
        assert!(e.contains("disagree"), "{e}");
        let e = tamper(&|h| {
            let mut sk = QuantileSketch::with_alpha(0.02);
            sk.observe(2.0);
            h[0].set("sketch", sk.state_json());
        });
        assert!(e.contains("accuracy"), "{e}");
        // Bucket counts are non-negative integers: 0.5 + 0.5 sums to the
        // sketch's count of 1 but no histogram counts half a sample.
        let e = tamper(&|h| h[1].set("buckets", vec![0.5, 0.5]));
        assert!(
            e.contains("bucket count is not a non-negative integer"),
            "{e}"
        );
        let e = tamper(&|h| h[1].set("buckets", vec![2.0, -1.0]));
        assert!(
            e.contains("bucket count is not a non-negative integer"),
            "{e}"
        );
        // So are counters; a gauge is an integer of either sign.
        let with = |key: &str, name: &str, v: f64| {
            let mut doc = good.clone();
            let mut section = doc.get(key).unwrap().clone();
            section.set(name, v);
            doc.set(key, section);
            Snapshot::from_state_json(&doc)
        };
        // A cast would read these as 0, 2 and 1.
        for v in [-5.0, 2.5] {
            let e = with("counters", "c", v).unwrap_err();
            assert!(
                e.0.contains("counter `c` is not a non-negative integer"),
                "{e}"
            );
        }
        let e = with("gauges", "g", 1.75).unwrap_err();
        assert!(e.0.contains("gauge `g` is not an integer"), "{e}");
        // A negative gauge is a level, not an error.
        assert_eq!(with("gauges", "g", -7.0).unwrap().gauge("g"), Some(-7));
    }

    #[test]
    fn snapshot_exports_keep_names_sorted_and_add() {
        let mut snap = Snapshot::default();
        snap.add_counter("zeta", 1);
        snap.add_counter("alpha", 2);
        snap.add_counter("zeta", 4);
        snap.add_gauge("g", -3);
        let mut h = Hist::new(&[1.0, 10.0]);
        h.observe(0.5);
        snap.add_histogram("h", h.clone());
        h.observe(20.0);
        snap.add_histogram("h", h);
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| &**n).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(snap.counter("zeta"), Some(5));
        assert_eq!(snap.gauge("g"), Some(-3));
        assert_eq!(snap.histogram("h").unwrap().buckets, [2, 0, 1]);
        // The same values through a registry read back identically.
        let r = Registry::new();
        r.merge_snapshot(&snap);
        assert_eq!(
            r.snapshot().state_json().to_string(),
            snap.state_json().to_string()
        );
    }

    #[test]
    fn merged_histogram_sums_are_grouping_independent() {
        // (A ⊕ B) ⊕ C must equal A ⊕ (B ⊕ C) on the full state, even for
        // float-valued observations — the integer-nanosecond accumulator
        // makes the sum exact.
        let shards: Vec<Snapshot> = (0..3)
            .map(|i| {
                let r = Registry::new();
                let h = r.histogram("h", &[1.0, 10.0]);
                h.observe(0.1 + 0.7 * i as f64);
                h.observe(5.3 * (i + 1) as f64);
                r.snapshot()
            })
            .collect();
        let left = Registry::new();
        left.merge_snapshot(&shards[0]);
        left.merge_snapshot(&shards[1]);
        let left_ab = left.snapshot();
        let right_bc = {
            let r = Registry::new();
            r.merge_snapshot(&shards[1]);
            r.merge_snapshot(&shards[2]);
            r.snapshot()
        };
        let grouped_left = Registry::new();
        grouped_left.merge_snapshot(&left_ab);
        grouped_left.merge_snapshot(&shards[2]);
        let grouped_right = Registry::new();
        grouped_right.merge_snapshot(&shards[0]);
        grouped_right.merge_snapshot(&right_bc);
        assert_eq!(
            grouped_left.snapshot().to_json().to_string_pretty(),
            grouped_right.snapshot().to_json().to_string_pretty()
        );
        let (a, b) = (grouped_left.snapshot(), grouped_right.snapshot());
        assert_eq!(
            a.histogram("h").unwrap().sketch.sum_ns(),
            b.histogram("h").unwrap().sketch.sum_ns()
        );
    }
}
