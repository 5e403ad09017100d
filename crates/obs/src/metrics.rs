//! Counters, gauges, and histograms: a [`Snapshot`] of plain values,
//! the one place counts are held and merged.
//!
//! The model layers count into plain fields of their own and write them
//! into a [`Snapshot`] when a run is read. A caller that aggregates
//! runs (a campaign collector, a daemon's own request counts) owns a
//! snapshot and [`merge`](Snapshot::merge)s the others into it. Names
//! are kept sorted, so every snapshot is deterministically ordered and
//! a name is looked up by binary search; a `&'static str` name the
//! snapshot already holds is found by its address instead (see
//! [`Snapshot`]), so a layer that exports into a held snapshot compares
//! no strings.
//!
//! A [`Hist`] keeps fixed buckets (for the Prometheus exposition) and
//! a [`QuantileSketch`] of every observation (for the count, exact sum,
//! min, max and quantiles). Both merge by integer addition, so merging
//! snapshots is exactly associative and commutative. Every histogram
//! has one shape: the bucket bounds [`DEFAULT_MS_BUCKETS`] and the
//! sketch accuracy [`GAMMA`](crate::sketch::GAMMA). The serialized
//! state still carries the bounds, and [`Snapshot::from_state_json`]
//! refuses any others, so every merge is total.

use std::borrow::Cow;

use crate::json::{Json, ToJson};
use crate::sketch::QuantileSketch;

/// Bucket upper bounds of every histogram, for millisecond-scale
/// latencies, spanning sub-ms kernel costs up to multi-second PSM
/// stalls.
pub const DEFAULT_MS_BUCKETS: [f64; 15] = [
    0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
];

/// Buckets of every histogram: one per bound, and the overflow bucket.
const BUCKETS: usize = DEFAULT_MS_BUCKETS.len() + 1;

/// A fixed-bucket histogram and a sketch of every observation: the one
/// histogram implementation. A layer owns one as a plain value and
/// exports it into a [`Snapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// `buckets[i]` counts observations `<= DEFAULT_MS_BUCKETS[i]`; the
    /// final slot is the overflow bucket. They sum to the sketch's
    /// count.
    pub(crate) buckets: [u64; BUCKETS],
    /// Every observation, merged exactly: the source of the count, sum,
    /// min, max and quantiles below.
    pub(crate) sketch: QuantileSketch,
}

impl Hist {
    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = DEFAULT_MS_BUCKETS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(DEFAULT_MS_BUCKETS.len());
        self.buckets[idx] += 1;
        self.sketch.observe(v);
    }

    /// Add `other`'s buckets and sketch to this one.
    pub fn merge(&mut self, other: &Hist) {
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
        obj.set("bounds", DEFAULT_MS_BUCKETS);
        obj.set("buckets", self.buckets);
        obj
    }
}

/// A metric name: borrowed where the exporting layer's name is fixed,
/// so exporting allocates no name it already knows.
pub type MetricName = Cow<'static, str>;

/// Deterministic (name-sorted) plain values of a set of metrics: what a
/// run's layers export, what a campaign collector merges them into,
/// what campaign state carries.
///
/// A snapshot also remembers where each `&'static str` name it was
/// asked for last sat in its list, keyed by the name's address. The
/// next [`add_counter`](Snapshot::add_counter),
/// [`add_gauge`](Snapshot::add_gauge),
/// [`merge_histogram`](Snapshot::merge_histogram) or
/// [`histogram_mut`](Snapshot::histogram_mut) with that name trusts the
/// remembered index only when the entry there holds a name at the same
/// address and of the same length, which is the same name, since names
/// are unique in a sorted list. Anything else — an owned name, an entry
/// that moved, two names that share a table slot, a list changed
/// directly — takes the binary search and refreshes the table, so the
/// table can cost time but never misfile a count.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` per counter, name-sorted.
    pub counters: Vec<(MetricName, u64)>,
    /// `(name, level)` per gauge, name-sorted.
    pub gauges: Vec<(MetricName, i64)>,
    /// `(name, histogram)` per histogram, name-sorted.
    pub histograms: Vec<(MetricName, Hist)>,
    /// Where each static name was last found.
    names: NameTable,
}

/// Where `name` sits in the name-sorted `list`: `Ok` at its entry, `Err`
/// where it would be inserted.
fn find<T>(list: &[(MetricName, T)], name: &str) -> Result<usize, usize> {
    list.binary_search_by(|(n, _)| (**n).cmp(name))
}

/// Slots of a [`NameTable`], a power of two. With the ~40 names a fleet
/// device exports, 64 slots left a quarter of them sharing a slot with
/// another name (each share costs both names a search per lookup).
const NAME_SLOTS: usize = 256;

/// The last index each `&'static str` name was found at in one of a
/// [`Snapshot`]'s lists, one slot per name address (a Fibonacci hash of
/// it). Counters, gauges and histograms share the table: an index is
/// only trusted after the entry it points at is checked.
#[derive(Clone)]
struct NameTable([u16; NAME_SLOTS]);

impl Default for NameTable {
    fn default() -> NameTable {
        NameTable([0; NAME_SLOTS])
    }
}

impl std::fmt::Debug for NameTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("NameTable")
    }
}

impl NameTable {
    /// The index of `name` in the name-sorted `list`, and whether it was
    /// held already: a missing name is inserted where it sorts, with
    /// `new()`'s value. A static name the table remembers at a matching
    /// entry is found without comparing a string; one found by search
    /// takes that entry's place in the table, and an owned held name is
    /// swapped for the static one (the same string), so the next lookup
    /// hits even where the list was restored from state.
    fn entry<T>(
        &mut self,
        list: &mut Vec<(MetricName, T)>,
        name: MetricName,
        new: impl FnOnce() -> T,
    ) -> (usize, bool) {
        let slot = match name {
            Cow::Borrowed(name) => {
                let hash = (name.as_ptr() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let slot = (hash >> (64 - NAME_SLOTS.trailing_zeros())) as usize;
                let hint = usize::from(self.0[slot]);
                if list
                    .get(hint)
                    .is_some_and(|(held, _)| std::ptr::eq(&**held, name))
                {
                    return (hint, true);
                }
                Some(slot)
            }
            Cow::Owned(_) => None,
        };
        let (i, held) = match find(list, &name) {
            Ok(i) => {
                if slot.is_some() && matches!(list[i].0, Cow::Owned(_)) {
                    list[i].0 = name;
                }
                (i, true)
            }
            Err(i) => {
                list.insert(i, (name, new()));
                (i, false)
            }
        };
        if let (Some(slot), Ok(i)) = (slot, u16::try_from(i)) {
            self.0[slot] = i;
        }
        (i, held)
    }
}

/// The value of `name` in the name-sorted `list`, inserted as 0 where it
/// is missing.
fn slot<'a, T: Default>(
    table: &mut NameTable,
    list: &'a mut Vec<(MetricName, T)>,
    name: MetricName,
) -> &'a mut T {
    let (i, _) = table.entry(list, name, T::default);
    &mut list[i].1
}

/// Fold the name-sorted `src` into the name-sorted `dst` in one walk
/// over both (a binary search per name cost six times as much): `add`
/// merges a value into the one held under its name, and only a name
/// `dst` lacks is cloned, in where it sorts.
fn merge_sorted<T: Clone>(
    dst: &mut Vec<(MetricName, T)>,
    src: &[(MetricName, T)],
    add: impl Fn(&mut T, &T),
) {
    let mut i = 0;
    for (name, v) in src {
        while dst.get(i).is_some_and(|(held, _)| **held < **name) {
            i += 1;
        }
        match dst.get_mut(i) {
            Some((held, mine)) if **held == **name => add(mine, v),
            _ => dst.insert(i, (name.clone(), v.clone())),
        }
        i += 1;
    }
}

impl Snapshot {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        find(&self.counters, name).ok().map(|i| self.counters[i].1)
    }

    /// Level of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        find(&self.gauges, name).ok().map(|i| self.gauges[i].1)
    }

    /// State of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&Hist> {
        find(&self.histograms, name)
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Add `v` to counter `name`, creating it in name order.
    pub fn add_counter(&mut self, name: impl Into<MetricName>, v: u64) {
        *slot(&mut self.names, &mut self.counters, name.into()) += v;
    }

    /// Add `v` to gauge `name`, creating it in name order.
    pub fn add_gauge(&mut self, name: impl Into<MetricName>, v: i64) {
        *slot(&mut self.names, &mut self.gauges, name.into()) += v;
    }

    /// Merge `h` into histogram `name`; only a name this snapshot lacks
    /// clones `h`. A layer exports the histogram it keeps this way.
    pub fn merge_histogram(&mut self, name: impl Into<MetricName>, h: &Hist) {
        let (i, held) = self
            .names
            .entry(&mut self.histograms, name.into(), || h.clone());
        if held {
            self.histograms[i].1.merge(h);
        }
    }

    /// Histogram `name`, inserted empty when absent, to observe into
    /// directly: an export that builds its histogram from records
    /// writes into the held one, not a copy.
    pub fn histogram_mut(&mut self, name: impl Into<MetricName>) -> &mut Hist {
        let (i, _) = self
            .names
            .entry(&mut self.histograms, name.into(), Hist::default);
        &mut self.histograms[i].1
    }

    /// Merge `other` (a run's export, or another aggregate) into this
    /// snapshot: counters and gauges add, histograms add bucket-wise and
    /// merge their sketches, and a name this snapshot lacks starts from
    /// `other`'s value.
    ///
    /// Every merge is exact integer addition (histogram sums in integer
    /// nanoseconds), so order and grouping never change a byte, and a
    /// snapshot whose names are all held merges without allocating
    /// (unless a sketch gains a bucket).
    pub fn merge(&mut self, other: &Snapshot) {
        merge_sorted(&mut self.counters, &other.counters, |a, b| *a += b);
        merge_sorted(&mut self.gauges, &other.gauges, |a, b| *a += b);
        merge_sorted(&mut self.histograms, &other.histograms, Hist::merge);
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
    /// without losing a bit. Each histogram carries the bounds
    /// ([`DEFAULT_MS_BUCKETS`]), its buckets and
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
            obj.set("bounds", DEFAULT_MS_BUCKETS);
            obj.set("buckets", h.buckets);
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
    /// round trip is exact: merging the result produces the same state
    /// as merging the original. Anything no run could have produced —
    /// another version, a counter or bucket count that is not an
    /// integer in 0..=2^53, a gauge that is not an integer of at most
    /// that magnitude, unsorted or repeated names, bounds other than
    /// [`DEFAULT_MS_BUCKETS`], a bucket list of another length, buckets
    /// that disagree with the sketch, or a sketch its own reader refuses
    /// (one of another accuracy, say) — is an error.
    pub fn from_state_json(state: &Json) -> Result<Snapshot, SnapshotStateError> {
        let err = |msg: &str| SnapshotStateError(msg.to_string());
        // Every count is a non-negative integer a JSON number carries
        // exactly; a cast would quietly turn -5 into 0, 2.5 into 2 and
        // 1e300 into `u64::MAX`.
        let count = |v: &Json, what: &str| {
            v.as_exact_int()
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| {
                    SnapshotStateError(format!(
                        "{what} is not a non-negative integer (at most 2^53)"
                    ))
                })
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
            let v = v.as_exact_int().ok_or_else(|| {
                SnapshotStateError(format!("gauge `{name}` is not an integer (at most 2^53)"))
            })?;
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
            let bounds = array(h, "bounds")?.iter().map(Json::as_f64);
            if !bounds.eq(DEFAULT_MS_BUCKETS.map(Some)) {
                return Err(bad("different bounds than DEFAULT_MS_BUCKETS"));
            }
            let buckets: [u64; BUCKETS] = array(h, "buckets")?
                .iter()
                .map(|v| count(v, &format!("histogram `{name}`: a bucket count")))
                .collect::<Result<Vec<u64>, _>>()?
                .try_into()
                .map_err(|_| bad(&format!("the bucket list must hold {BUCKETS} counts")))?;
            let sketch = QuantileSketch::from_state_json(
                h.get("sketch").ok_or_else(|| bad("missing sketch"))?,
            )
            .map_err(|e| bad(&e.0))?;
            if buckets.iter().sum::<u64>() != sketch.count() {
                return Err(bad("bucket counts disagree with the sketch"));
            }
            let hist = Hist { buckets, sketch };
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

    /// Record `v` into histogram `name` of `snap`.
    fn observe(snap: &mut Snapshot, name: &str, v: f64) {
        let mut h = Hist::default();
        h.observe(v);
        snap.merge_histogram(name.to_string(), &h);
    }

    #[test]
    fn bucket_boundaries_are_le() {
        let mut snap = Snapshot::default();
        for v in [0.5, 1.0, 1.0001, 10.0, 11.0, 5000.5] {
            observe(&mut snap, "h", v);
        }
        let hs = snap.histogram("h").unwrap();
        // <=0.5: {0.5}; <=1: {1.0}; <=2: {1.0001}; <=10: {10.0};
        // <=15: {11.0}; >5000: {5000.5}
        assert_eq!(hs.buckets, [0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(hs.count(), 6);
        assert_eq!(hs.min(), 0.5);
        assert_eq!(hs.max(), 5000.5);
    }

    /// A merge places each name it lacks where it falls between the
    /// held ones and adds to the ones it holds.
    #[test]
    fn snapshot_is_name_sorted() {
        let mut snap = Snapshot::default();
        let mut other = Snapshot::default();
        for (name, v) in [("b", 1), ("zeta", 2)] {
            snap.add_counter(name, v);
        }
        for (name, v) in [("alpha", 10), ("c", 20), ("zeta", 30), ("zz", 40)] {
            other.add_counter(name, v);
        }
        snap.merge(&other);
        let got: Vec<(&str, u64)> = snap.counters.iter().map(|(n, v)| (&**n, *v)).collect();
        assert_eq!(
            got,
            [("alpha", 10), ("b", 1), ("c", 20), ("zeta", 32), ("zz", 40)]
        );
        assert!(got.iter().all(|&(n, v)| snap.counter(n) == Some(v)));
        assert_eq!(snap.counter("d"), None);
    }

    #[test]
    fn quantiles_track_the_whole_population() {
        // Far past the 4,096 observations a first-N reservoir would keep
        // (it reported p50 2,048.5 and p99 4,055.05 here).
        let mut h = Hist::default();
        for v in 1..=10_000 {
            h.observe(v as f64);
        }
        let mut snap = Snapshot::default();
        snap.merge_histogram("q", &h);
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
        snap.merge_histogram("empty", &Hist::default());
        let e = snap.histogram("empty").unwrap();
        assert_eq!((e.p50(), e.p99(), e.min(), e.max()), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn merge_snapshot_equals_direct_ingest() {
        // Two shard snapshots vs one snapshot fed everything: merged
        // snapshots must agree exactly (integer-valued observations so
        // even the float sums are exact).
        let mut shard_a = Snapshot::default();
        let mut shard_b = Snapshot::default();
        let mut direct = Snapshot::default();
        for v in [1u64, 3, 7] {
            shard_a.add_counter("probes", v);
            direct.add_counter("probes", v);
        }
        shard_b.add_counter("probes", 5);
        direct.add_counter("probes", 5);
        shard_b.add_counter("only_b", 1);
        direct.add_counter("only_b", 1);
        shard_a.add_gauge("depth", 4);
        direct.add_gauge("depth", 4);
        for v in [2.0f64, 8.0, 64.0] {
            observe(&mut shard_a, "du_ms", v);
            observe(&mut direct, "du_ms", v);
        }
        observe(&mut shard_b, "du_ms", 16.0);
        observe(&mut direct, "du_ms", 16.0);

        let mut merged = Snapshot::default();
        merged.merge(&shard_a);
        merged.merge(&shard_b);
        assert_eq!(merged.to_json().to_string(), direct.to_json().to_string());
    }

    #[test]
    fn merge_snapshot_is_order_independent_for_integer_state() {
        let snaps: Vec<Snapshot> = (0..4)
            .map(|i| {
                let mut s = Snapshot::default();
                s.add_counter("c", i + 1);
                observe(&mut s, "h", (3 * i + 1) as f64);
                s
            })
            .collect();
        let mut a = Snapshot::default();
        for s in &snaps {
            a.merge(s);
        }
        let mut b = Snapshot::default();
        for s in snaps.iter().rev() {
            b.merge(s);
        }
        assert_eq!(a.counter("c"), b.counter("c"));
        let (ha, hb) = (a.histogram("h").unwrap(), b.histogram("h").unwrap());
        assert_eq!(ha.buckets, hb.buckets);
        assert_eq!(ha.sketch, hb.sketch);
        assert_eq!(a.state_json().to_string(), b.state_json().to_string());
    }

    #[test]
    fn snapshot_state_round_trip_is_exact() {
        let mut snap = Snapshot::default();
        snap.add_counter("probes", 41);
        snap.add_gauge("depth", -3);
        for v in [0.125, 7.25, 3001.5] {
            observe(&mut snap, "du_ms", v);
        }
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
        // Restoring into a fresh snapshot and continuing equals the
        // uninterrupted snapshot exactly.
        let mut resumed = Snapshot::default();
        resumed.merge(&restored);
        observe(&mut resumed, "du_ms", 42.0);
        observe(&mut snap, "du_ms", 42.0);
        assert_eq!(
            resumed.to_json().to_string_pretty(),
            snap.to_json().to_string_pretty()
        );
    }

    #[test]
    fn snapshot_state_rejects_newer_versions() {
        let snap = Snapshot::default();
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
        let mut snap = Snapshot::default();
        observe(&mut snap, "a", 2.0);
        observe(&mut snap, "b", 0.5);
        snap.add_counter("c", 3);
        snap.add_gauge("g", -2);
        let good = snap.state_json();
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
        // Every histogram has the one set of bounds, in full.
        let mut other = DEFAULT_MS_BUCKETS;
        other[0] = 0.125;
        for bounds in [&other[..], &DEFAULT_MS_BUCKETS[1..], &[]] {
            let e = tamper(&|h| h[0].set("bounds", bounds));
            assert!(e.contains("histogram `a`: different bounds"), "{e}");
        }
        // Zero buckets but for the `(index, count)` pairs given.
        let counts = |pairs: &[(usize, f64)]| {
            let mut b = [0.0; BUCKETS];
            pairs.iter().for_each(|&(i, n)| b[i] = n);
            b
        };
        // `a` holds one observation, 2.0, in bucket 3.
        let e = tamper(&|h| h[0].set("buckets", counts(&[(3, 2.0)])));
        assert!(e.contains("disagree"), "{e}");
        let e = tamper(&|h| h[0].set("buckets", vec![0u64, 0, 0, 1]));
        assert!(e.contains("the bucket list must hold 16 counts"), "{e}");
        let e = tamper(&|h| {
            let mut sk = h[0].get("sketch").unwrap().clone();
            sk.set("gamma", (1.0 + 0.02) / (1.0 - 0.02));
            h[0].set("sketch", sk);
        });
        assert!(e.contains("histogram `a`") && e.contains("accuracy"), "{e}");
        // Bucket counts are non-negative integers: 0.5 + 0.5 sums to the
        // sketch's count of 1 but no histogram counts half a sample.
        let e = tamper(&|h| h[1].set("buckets", counts(&[(1, 0.5), (2, 0.5)])));
        assert!(
            e.contains("bucket count is not a non-negative integer"),
            "{e}"
        );
        let e = tamper(&|h| h[1].set("buckets", counts(&[(1, 2.0), (2, -1.0)])));
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
        // A cast would read these as 0, 2 and 1, and 1e300 as
        // `u64::MAX`, which the next `add_counter` overflows: a count is
        // at most 2^53, the largest integer a JSON number carries exactly.
        for v in [-5.0, 2.5, 1e300, 2f64.powi(54)] {
            let e = with("counters", "c", v).unwrap_err();
            assert!(
                e.0.contains("counter `c` is not a non-negative integer"),
                "{e}"
            );
        }
        for v in [1.75, -1e300] {
            let e = with("gauges", "g", v).unwrap_err();
            assert!(e.0.contains("gauge `g` is not an integer"), "{e}");
        }
        let exact = 2f64.powi(53);
        assert_eq!(
            with("counters", "c", exact).unwrap().counter("c"),
            Some(1 << 53)
        );
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
        let mut h = Hist::default();
        h.observe(0.5);
        snap.merge_histogram("h", &h);
        h.observe(20.0);
        snap.merge_histogram("h", &h);
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| &**n).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(snap.counter("zeta"), Some(5));
        assert_eq!(snap.gauge("g"), Some(-3));
        assert_eq!(
            snap.histogram("h").unwrap().buckets,
            [0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]
        );
        // The same values merged into an empty snapshot read back
        // identically.
        let mut merged = Snapshot::default();
        merged.merge(&snap);
        assert_eq!(
            merged.state_json().to_string(),
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
                let mut s = Snapshot::default();
                observe(&mut s, "h", 0.1 + 0.7 * i as f64);
                observe(&mut s, "h", 5.3 * (i + 1) as f64);
                s
            })
            .collect();
        let merged = |parts: &[&Snapshot]| {
            let mut s = Snapshot::default();
            for p in parts {
                s.merge(p);
            }
            s
        };
        let left_ab = merged(&[&shards[0], &shards[1]]);
        let right_bc = merged(&[&shards[1], &shards[2]]);
        let a = merged(&[&left_ab, &shards[2]]);
        let b = merged(&[&shards[0], &right_bc]);
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty()
        );
        assert_eq!(
            a.histogram("h").unwrap().sketch.sum_ns(),
            b.histogram("h").unwrap().sketch.sum_ns()
        );
    }

    /// The name table can cost time but never misfile a count: random
    /// counter, gauge and histogram writes under static and owned
    /// names (more static names than table slots, and names that are
    /// prefixes of others at the same address), mixed with clones,
    /// merges, state round trips and direct edits of the `pub` lists,
    /// leave every list equal to a plain sorted model after each step.
    #[test]
    fn name_table_matches_a_sorted_model() {
        use std::collections::BTreeMap;
        let mut rng = 0x5EED_u64;
        let mut next = move |n: usize| {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut pool: Vec<&'static str> = (0..2 * NAME_SLOTS)
            .map(|i| &*Box::leak(format!("m.{:04}", (i * 7919) % 10_000).into_boxed_str()))
            .collect();
        // A name that is another's prefix shares its address.
        let long: &'static str = Box::leak("m.shared.tail".to_string().into_boxed_str());
        pool.extend([long, &long[..8], &long[..5]]);
        let hot = pool.len() - 40;
        let pick = |next: &mut dyn FnMut(usize) -> usize| -> MetricName {
            let name = if next(5) > 0 {
                pool[hot + next(40)]
            } else {
                pool[next(pool.len())]
            };
            match next(4) {
                0 => MetricName::Owned(name.to_string()),
                _ => MetricName::Borrowed(name),
            }
        };
        let hist = |values: &[f64]| {
            let mut h = Hist::default();
            values.iter().for_each(|&v| h.observe(v));
            h
        };

        let mut snap = Snapshot::default();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, i64> = BTreeMap::new();
        let mut hists: BTreeMap<String, Hist> = BTreeMap::new();
        for step in 0..6_000 {
            let op = next(9);
            match op {
                0 => {
                    let name = pick(&mut next);
                    let v = next(100) as u64;
                    *counters.entry(name.to_string()).or_default() += v;
                    snap.add_counter(name, v);
                }
                1 => {
                    let name = pick(&mut next);
                    let v = next(100) as i64 - 50;
                    *gauges.entry(name.to_string()).or_default() += v;
                    snap.add_gauge(name, v);
                }
                2 => {
                    let name = pick(&mut next);
                    let h = hist(&[next(3000) as f64 / 7.0]);
                    match hists.get_mut(&*name) {
                        Some(held) => held.merge(&h),
                        None => drop(hists.insert(name.to_string(), h.clone())),
                    }
                    snap.merge_histogram(name, &h);
                }
                3 => {
                    let name = pick(&mut next);
                    let v = next(3000) as f64 / 3.0;
                    hists.entry(name.to_string()).or_default().observe(v);
                    snap.histogram_mut(name).observe(v);
                }
                4 => snap = snap.clone(),
                5 => {
                    let mut other = Snapshot::default();
                    for _ in 0..next(4) {
                        let (name, v) = (pick(&mut next), next(10) as u64);
                        *counters.entry(name.to_string()).or_default() += v;
                        other.add_counter(name, v);
                    }
                    let name = pick(&mut next);
                    let h = hist(&[2.5]);
                    match hists.get_mut(&*name) {
                        Some(held) => held.merge(&h),
                        None => drop(hists.insert(name.to_string(), h.clone())),
                    }
                    other.merge_histogram(name, &h);
                    snap.merge(&other);
                }
                6 => {
                    // A restored snapshot's names are owned; swapping in
                    // only its lists keeps this one's (now stale) table.
                    let restored = Snapshot::from_state_json(&snap.state_json()).unwrap();
                    if next(2) == 0 {
                        snap = restored;
                    } else {
                        snap.counters = restored.counters;
                        snap.gauges = restored.gauges;
                        snap.histograms = restored.histograms;
                    }
                }
                7 => {
                    // A direct insert where the name sorts moves every
                    // entry after it.
                    let name = pick(&mut next);
                    if let Err(i) = find(&snap.counters, &name) {
                        counters.insert(name.to_string(), 1);
                        snap.counters.insert(i, (name, 1));
                    }
                }
                _ => {
                    if !snap.gauges.is_empty() {
                        let (name, _) = snap.gauges.remove(next(snap.gauges.len()));
                        gauges.remove(&*name);
                    }
                }
            }
            fn same<T: PartialEq + std::fmt::Debug>(
                list: &[(MetricName, T)],
                model: &BTreeMap<String, T>,
            ) -> bool {
                list.len() == model.len()
                    && list
                        .iter()
                        .zip(model)
                        .all(|((n, v), (m, w))| **n == **m && v == w)
            }
            assert!(same(&snap.counters, &counters), "step {step}, op {op}");
            assert!(same(&snap.gauges, &gauges), "step {step}, op {op}");
            assert!(same(&snap.histograms, &hists), "step {step}, op {op}");
        }
        assert!(
            counters.len() > NAME_SLOTS,
            "the pool must outgrow the table"
        );
    }
}
