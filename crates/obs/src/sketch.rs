//! A mergeable streaming quantile sketch for population-scale
//! aggregation.
//!
//! The fleet campaign engine runs thousands of independent device
//! simulations in parallel; holding every probe sample in one vector
//! would make the collector's memory grow with the probe count and make
//! the result depend on the (nondeterministic) shard completion order.
//! [`QuantileSketch`] solves both problems. It is a log-bucketed
//! quantile sketch in the DDSketch family: relative-accuracy buckets,
//! memory bounded by the dynamic range (never by the sample count), and
//! *censoring-aware* in the sense of `am_stats::CensoredSample` — lost
//! probes stay in the denominator as +∞ and a quantile is reported only
//! when it provably falls in the observed region.
//!
//! The sketch keeps **integer internals** (bucket counts, and the sum in
//! integer nanoseconds): its [`merge`](QuantileSketch::merge) is then
//! *exactly* associative and commutative — not merely up to float
//! rounding — so a collector may fold shard results in any order and
//! still produce byte-identical output for any worker count. It backs
//! every [`Hist`](crate::Hist) as well as the campaign
//! report's per-stratum statistics. The property tests below check both
//! laws on the full serialized state.
//!
//! Every sketch has one accuracy, [`DEFAULT_ALPHA`] (log-bucket base
//! [`GAMMA`]), so the buckets of any two sketches line up and every
//! merge is total. The serialized state still carries γ, and
//! [`QuantileSketch::from_state_json`] refuses any other value: a
//! foreign sketch fails where it is read, never in a merge.

use crate::json::{Json, ToJson};

/// Version tag written into [`QuantileSketch::state_json`] payloads;
/// [`QuantileSketch::from_state_json`] reads this version only.
pub const SKETCH_STATE_VERSION: u64 = 1;

/// A failure to reconstruct a sketch from its serialized state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchStateError(pub String);

impl std::fmt::Display for SketchStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sketch state error: {}", self.0)
    }
}

impl std::error::Error for SketchStateError {}

/// Relative-accuracy parameter α of every sketch: a reported quantile
/// `q̂` satisfies `|q̂ − q| ≤ α·q`.
pub const DEFAULT_ALPHA: f64 = 0.005;

/// The log-bucket base γ = (1+α)/(1−α) of every sketch: bucket `i`
/// covers `(γ^(i−1)·MIN, γ^i·MIN]`.
pub const GAMMA: f64 = (1.0 + DEFAULT_ALPHA) / (1.0 - DEFAULT_ALPHA);

/// ln(γ), for the bucket index: the value `GAMMA.ln()` returns, written
/// out because `f64::ln` is not `const`. Every bucket index, and so
/// every byte of sketch state, depends on its bits (a test compares
/// them).
const LN_GAMMA: f64 = 0.010000083334583179;

/// Smallest magnitude (ms) the sketch resolves; values in
/// `[0, MIN_VALUE_MS]` share the zero bucket.
pub const MIN_VALUE_MS: f64 = 1e-4;

/// A mergeable, censoring-aware quantile sketch over non-negative
/// millisecond values (negative observations clamp to the zero bucket —
/// delays cannot be negative, but float noise around 0 can be).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Sparse bucket counts, keyed by bucket index, kept sorted. The
    /// number of keys is bounded by the dynamic range: ~3500 for
    /// α = 0.5% across 1e-4..1e5 ms, independent of the sample count.
    buckets: Vec<(i32, u64)>,
    /// Observations at or below [`MIN_VALUE_MS`].
    zero: u64,
    /// Observed (non-censored) count.
    count: u64,
    /// Censored (lost/timed-out) count — mass at +∞.
    censored: u64,
    /// Sum of observed values in integer nanoseconds: merge stays exact.
    sum_ns: i128,
    /// Exact minimum observed value, ms.
    min: f64,
    /// Exact maximum observed value, ms.
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            buckets: Vec::new(),
            zero: 0,
            count: 0,
            censored: 0,
            sum_ns: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(v: f64) -> i32 {
        // ceil(ln(v / MIN) / ln γ): bucket i covers (γ^(i−1), γ^i]·MIN.
        ((v / MIN_VALUE_MS).ln() / LN_GAMMA).ceil() as i32
    }

    /// The representative value of bucket `i` (geometric midpoint, the
    /// standard DDSketch estimator).
    fn bucket_value(i: i32) -> f64 {
        2.0 * GAMMA.powi(i) / (GAMMA + 1.0) * MIN_VALUE_MS
    }

    /// Record one observed value (ms).
    pub fn observe(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.count += 1;
        self.sum_ns += (v * 1e6).round() as i128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v <= MIN_VALUE_MS {
            self.zero += 1;
            return;
        }
        let idx = Self::bucket_index(v);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
    }

    /// Record one censored probe (lost/timed-out: value known only to be
    /// at least its deadline, treated as +∞).
    pub fn observe_censored(&mut self) {
        self.censored += 1;
    }

    /// Record an outcome in the `am_stats::CensoredSample` convention:
    /// `Some(v)` observed, `None` censored.
    pub fn push(&mut self, outcome: Option<f64>) {
        match outcome {
            Some(v) => self.observe(v),
            None => self.observe_censored(),
        }
    }

    /// Merge `other` into `self`. Every sketch has the one accuracy
    /// ([`GAMMA`]), so the buckets always line up.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.zero += other.zero;
        self.count += other.count;
        self.censored += other.censored;
        self.sum_ns += other.sum_ns;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for &(idx, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (idx, n)),
            }
        }
    }

    /// Observed (completed) count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Censored count.
    pub fn censored(&self) -> u64 {
        self.censored
    }

    /// Total probes, observed + censored.
    pub fn len(&self) -> u64 {
        self.count + self.censored
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of probes that completed (0 for an empty sketch).
    pub fn completion(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.count as f64 / self.len() as f64
        }
    }

    /// Mean of the observed values, ms (0 when empty). Exact: the sum is
    /// kept in integer nanoseconds.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / 1e6 / self.count as f64
        }
    }

    /// Sum of the observed values in integer nanoseconds (exact under
    /// any merge order).
    pub(crate) fn sum_ns(&self) -> i128 {
        self.sum_ns
    }

    /// Minimum observed value (None when nothing observed).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observed value (None when nothing observed).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Loss-aware quantile: rank over the *full* population with every
    /// censored probe at +∞. Returns `None` when the rank lands in the
    /// censored tail (the quantile is not identifiable), `Some(q̂)` with
    /// relative error ≤ α otherwise.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let n = self.len();
        // Nearest-rank over n samples; ranks beyond the observed region
        // are censored, hence unidentifiable — mirrors CensoredSample.
        let rank = ((p * (n - 1) as f64).ceil() as u64).min(n - 1);
        if rank >= self.count {
            return None;
        }
        let mut seen = self.zero;
        if rank < seen {
            // Exact for the zero bucket when min is in it; conservative
            // otherwise (everything below MIN_VALUE_MS is "zero").
            return Some(self.min.clamp(0.0, MIN_VALUE_MS));
        }
        for &(idx, c) in &self.buckets {
            seen += c;
            if rank < seen {
                return Some(Self::bucket_value(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Loss-aware median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Number of non-empty buckets (memory proxy, for the bounded-memory
    /// assertions).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len() + usize::from(self.zero > 0)
    }

    /// Serialize the **full** sketch state — not the summary view of
    /// [`ToJson`] — so the sketch can be reconstructed exactly by
    /// [`QuantileSketch::from_state_json`]. This is the payload the fleet
    /// campaign checkpoint and partial-report formats embed.
    ///
    /// The state keeps merge exactness across a serialize/deserialize
    /// hop: `sum_ns` (an `i128`) travels as a decimal string because JSON
    /// numbers are doubles, and `min`/`max` are omitted (null) when
    /// nothing was observed (their in-memory sentinels are ±∞, which JSON
    /// cannot carry).
    ///
    /// ```
    /// use obs::QuantileSketch;
    /// let mut s = QuantileSketch::new();
    /// s.observe(12.5);
    /// s.observe_censored();
    /// let restored = QuantileSketch::from_state_json(&s.state_json()).unwrap();
    /// assert_eq!(restored, s);
    /// ```
    pub fn state_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("version", SKETCH_STATE_VERSION);
        obj.set("gamma", GAMMA);
        let mut buckets = Json::array();
        for &(idx, n) in &self.buckets {
            let mut pair = Json::array();
            pair.push(f64::from(idx));
            pair.push(n);
            buckets.push(pair);
        }
        obj.set("buckets", buckets);
        obj.set("zero", self.zero);
        obj.set("count", self.count);
        obj.set("censored", self.censored);
        obj.set("sum_ns", self.sum_ns.to_string());
        obj.set("min", (self.count > 0).then_some(self.min));
        obj.set("max", (self.count > 0).then_some(self.max));
        obj
    }

    /// Reconstruct a sketch from [`QuantileSketch::state_json`] output.
    /// The round trip is exact: the result compares equal (`==`) to the
    /// original and merges identically.
    /// A state no sketch reaches is refused, so every query and merge on
    /// the result is safe: a version other than
    /// [`SKETCH_STATE_VERSION`], a `gamma` other than [`GAMMA`], a count
    /// not an integer in 0..=2^53, a bucket index not an integer that
    /// fits `i32`, an empty bucket, a `count` other than `zero` plus the
    /// buckets', and once something was observed, a `min` above `max` or
    /// either not ≥ 0.
    pub fn from_state_json(state: &Json) -> Result<QuantileSketch, SketchStateError> {
        let err = |msg: &str| SketchStateError(msg.to_string());
        // Every count, and the version, is an integer a JSON number
        // carries exactly: a cast would read -4 as 0, 2.5 as 2 and 1e300
        // as `u64::MAX`.
        let count_of = |v: Option<&Json>, what: &str| {
            v.and_then(Json::as_exact_int)
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| {
                    SketchStateError(format!(
                        "{what} is not a non-negative integer (at most 2^53)"
                    ))
                })
        };
        let version = count_of(state.get("version"), "version")?;
        if version != SKETCH_STATE_VERSION {
            return Err(SketchStateError(format!(
                "sketch state version {version} is not supported (expected \
                 {SKETCH_STATE_VERSION})"
            )));
        }
        let gamma = state
            .get("gamma")
            .and_then(Json::as_f64)
            .ok_or_else(|| err("missing gamma"))?;
        if gamma != GAMMA {
            return Err(SketchStateError(format!(
                "gamma {gamma} is not {GAMMA}: a sketch of another accuracy does not merge"
            )));
        }
        let count = count_of(state.get("count"), "count")?;
        let zero = count_of(state.get("zero"), "zero")?;
        let censored = count_of(state.get("censored"), "censored")?;
        let sum_ns = state
            .get("sum_ns")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing sum_ns"))?
            .parse::<i128>()
            .map_err(|e| SketchStateError(format!("bad sum_ns: {e}")))?;
        let mut buckets = Vec::new();
        // Every observation lands in the zero bucket or one other.
        let mut held = zero;
        for pair in state
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| err("missing buckets"))?
        {
            let pair = pair.as_arr().ok_or_else(|| err("bucket not a pair"))?;
            let (idx, n) = match pair {
                [i, n] => (
                    i.as_exact_int()
                        .and_then(|i| i32::try_from(i).ok())
                        .ok_or_else(|| err("bucket index is not an integer that fits i32"))?,
                    count_of(Some(n), "bucket count")?,
                ),
                _ => return Err(err("bucket pair must have two entries")),
            };
            if n == 0 {
                return Err(err("bucket count is 0 (empty buckets are not kept)"));
            }
            if let Some(&(last, _)) = buckets.last() {
                if idx <= last {
                    return Err(err("bucket indices must be strictly ascending"));
                }
            }
            held = held.saturating_add(n);
            buckets.push((idx, n));
        }
        if held != count {
            return Err(SketchStateError(format!(
                "count {count} is not zero plus the bucket counts ({held})"
            )));
        }
        let float_field = |name: &str| -> Result<f64, SketchStateError> {
            match state.get(name).and_then(Json::as_f64) {
                Some(v) if v.is_finite() && v >= 0.0 => Ok(v),
                _ => Err(SketchStateError(format!(
                    "{name} is not a finite value >= 0"
                ))),
            }
        };
        let (min, max) = if count > 0 {
            let (min, max) = (float_field("min")?, float_field("max")?);
            if min > max {
                return Err(SketchStateError(format!("min {min} exceeds max {max}")));
            }
            (min, max)
        } else {
            (f64::INFINITY, f64::NEG_INFINITY)
        };
        Ok(QuantileSketch {
            buckets,
            zero,
            count,
            censored,
            sum_ns,
            min,
            max,
        })
    }
}

impl ToJson for QuantileSketch {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("count", self.count);
        obj.set("censored", self.censored);
        obj.set("completion", self.completion());
        obj.set("mean", self.mean());
        obj.set("min", self.min());
        obj.set("max", self.max());
        obj.set("p50", self.quantile(0.50));
        obj.set("p90", self.quantile(0.90));
        obj.set("p99", self.quantile(0.99));
        obj.set("buckets", self.bucket_count() as u64);
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic value stream (no external RNG in tests).
    fn stream(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Latency-shaped: 0.05 .. ~500 ms, long-tailed.
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                0.05 + 500.0 * u * u
            })
            .collect()
    }

    fn sketch_of(values: &[f64], censored: u64) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for &v in values {
            s.observe(v);
        }
        for _ in 0..censored {
            s.observe_censored();
        }
        s
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut xs = stream(7, 50_000);
        let s = sketch_of(&xs, 0);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            // R type-7 (interpolated) order statistic.
            let h = p * (xs.len() - 1) as f64;
            let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
            let exact = xs[lo] + (xs[hi] - xs[lo]) * (h - lo as f64);
            let est = s.quantile(p).unwrap();
            let rel = (est - exact).abs() / exact;
            // Nearest-rank vs interpolated exact adds a half-sample gap
            // on top of the bucket error; 2α covers both comfortably at
            // this n.
            assert!(rel <= 2.0 * DEFAULT_ALPHA + 1e-6, "p={p}: {est} vs {exact}");
        }
    }

    #[test]
    fn memory_is_bounded_by_dynamic_range_not_count() {
        let s = sketch_of(&stream(3, 200_000), 0);
        assert_eq!(s.count(), 200_000);
        // ~log(range)/log(γ) buckets; far below the sample count.
        assert!(s.bucket_count() < 4000, "{} buckets", s.bucket_count());
    }

    #[test]
    fn merge_is_commutative_and_associative_exactly() {
        let a = sketch_of(&stream(1, 5000), 17);
        let b = sketch_of(&stream(2, 3000), 0);
        let c = sketch_of(&stream(3, 4000), 5);
        // Commutativity: a⊕b == b⊕a on the full state.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Associativity: (a⊕b)⊕c == a⊕(b⊕c).
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        // And the serialized view agrees byte-for-byte.
        assert_eq!(ab_c.to_json().to_string(), a_bc.to_json().to_string());
    }

    #[test]
    fn merge_is_permutation_invariant_over_many_shards() {
        let shards: Vec<QuantileSketch> = (0..16)
            .map(|i| sketch_of(&stream(i, 500 + 37 * i as usize), i))
            .collect();
        let fold = |order: &[usize]| {
            let mut acc = QuantileSketch::new();
            for &i in order {
                acc.merge(&shards[i]);
            }
            acc.to_json().to_string()
        };
        let fwd: Vec<usize> = (0..16).collect();
        let rev: Vec<usize> = (0..16).rev().collect();
        let shuffled = vec![5, 12, 0, 9, 3, 15, 7, 1, 14, 6, 11, 2, 8, 13, 4, 10];
        assert_eq!(fold(&fwd), fold(&rev));
        assert_eq!(fold(&fwd), fold(&shuffled));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = sketch_of(&stream(9, 1000), 3);
        let mut b = a.clone();
        b.merge(&QuantileSketch::new());
        assert_eq!(a, b);
        let mut e = QuantileSketch::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn completion_and_mean_are_exact() {
        let mut s = QuantileSketch::new();
        s.push(Some(10.0));
        s.push(Some(20.0));
        s.push(None);
        s.push(Some(30.0));
        assert_eq!(s.len(), 4);
        assert_eq!(s.censored(), 1);
        assert!((s.completion() - 0.75).abs() < 1e-12);
        assert!((s.mean() - 20.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(10.0));
        assert_eq!(s.max(), Some(30.0));
    }

    #[test]
    fn empty_and_all_censored() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        let mut s = QuantileSketch::new();
        for _ in 0..10 {
            s.observe_censored();
        }
        assert_eq!(s.completion(), 0.0);
        assert_eq!(s.quantile(0.0), None);
    }

    #[test]
    fn state_round_trip_is_exact() {
        for (seed, censored) in [(1u64, 0u64), (7, 23), (13, 999)] {
            let s = sketch_of(&stream(seed, 4000), censored);
            let state = s.state_json();
            let restored = QuantileSketch::from_state_json(&state).expect("round trip");
            assert_eq!(restored, s, "seed {seed}");
            // The serialized text itself round-trips through the parser.
            let reparsed = Json::parse(&state.to_string_pretty()).unwrap();
            assert_eq!(QuantileSketch::from_state_json(&reparsed).unwrap(), s);
        }
        // Empty and all-censored sketches survive too (±∞ sentinels).
        let empty = QuantileSketch::new();
        assert_eq!(
            QuantileSketch::from_state_json(&empty.state_json()).unwrap(),
            empty
        );
        let mut cens = QuantileSketch::new();
        cens.observe_censored();
        assert_eq!(
            QuantileSketch::from_state_json(&cens.state_json()).unwrap(),
            cens
        );
    }

    #[test]
    fn deserialized_sketch_merges_identically() {
        // serialize → deserialize → merge must equal merge of the
        // originals, bit for bit: this is what makes a resumed campaign
        // byte-identical to an uninterrupted one.
        let a = sketch_of(&stream(21, 3000), 11);
        let b = sketch_of(&stream(22, 2000), 0);
        let a2 = QuantileSketch::from_state_json(&a.state_json()).unwrap();
        let mut direct = a.clone();
        direct.merge(&b);
        let mut hopped = a2;
        hopped.merge(&b);
        assert_eq!(direct, hopped);
        assert_eq!(
            direct.to_json().to_string_pretty(),
            hopped.to_json().to_string_pretty()
        );
    }

    #[test]
    fn state_rejects_newer_versions_and_garbage() {
        let s = sketch_of(&stream(5, 100), 2);
        let mut state = s.state_json();
        state.set("version", (SKETCH_STATE_VERSION + 1) as f64);
        assert!(QuantileSketch::from_state_json(&state).is_err());
        assert!(QuantileSketch::from_state_json(&Json::object()).is_err());
        let mut bad = s.state_json();
        bad.set("sum_ns", "not-a-number");
        assert!(QuantileSketch::from_state_json(&bad).is_err());
    }

    /// States no sketch reaches are refused at the reader, before a
    /// query can act on them: swapped `min`/`max` made every quantile
    /// panic in `f64::clamp`, casts read `-4` as 0, `2.5` as 2 and
    /// `1e300` as `u64::MAX` (whose `len()` overflows), and a `count`
    /// with no mass behind it read its median as `max`.
    #[test]
    fn state_rejects_what_no_sketch_reaches() {
        let good = sketch_of(&[0.00005, 1.0, 500.0], 2).state_json();
        // `good` with the fields of the JSON object `edits` replaced.
        let read = |edits: &str| {
            let mut doc = good.clone();
            if let Ok(Json::Obj(fields)) = Json::parse(edits) {
                fields.into_iter().for_each(|(k, v)| doc.set(&k, v));
            }
            QuantileSketch::from_state_json(&doc)
        };
        for (edits, why) in [
            (r#"{"min":500,"max":0.00005}"#, "min 500 exceeds max"),
            (r#"{"gamma":1.04}"#, "another accuracy"),
            (r#"{"zero":-4}"#, "zero is not a non-negative integer"),
            (r#"{"count":2.5}"#, "count is not a non-negative integer"),
            (r#"{"censored":1e300}"#, "censored is not a non-negative"),
            (
                r#"{"count":4}"#,
                "count 4 is not zero plus the bucket counts (3)",
            ),
            (r#"{"min":-1}"#, "min is not a finite value >= 0"),
            (r#"{"max":null}"#, "max is not a finite value >= 0"),
            (r#"{"zero":0,"buckets":[]}"#, "count 3 is not zero plus"),
            (
                r#"{"count":1,"zero":1,"buckets":[[700,0]]}"#,
                "bucket count is 0",
            ),
            (
                r#"{"count":1,"zero":0,"buckets":[[700,1e300]]}"#,
                "bucket count is not",
            ),
        ] {
            let e = read(edits).unwrap_err().0;
            assert!(e.contains(why), "{edits}: {e}");
        }
        // The largest count a JSON number carries exactly still loads,
        // and with nothing observed `min` and `max` are not read.
        let most = read(r#"{"censored":9007199254740992}"#).unwrap();
        assert_eq!(most.len(), (1 << 53) + 3);
        assert!(read(r#"{"count":0,"zero":0,"buckets":[],"min":-1}"#).is_ok());
    }

    #[test]
    fn state_refuses_inexact_bucket_indices_and_versions() {
        let one = sketch_of(&[500.0], 0);
        let (mut doc, idx) = (one.state_json(), one.buckets[0].0);
        for bad in ["1842.5", "1e300", "-1e300", "2147483648", "-2147483649"] {
            doc.set("buckets", Json::parse(&format!("[[{bad},1]]")).unwrap());
            let e = QuantileSketch::from_state_json(&doc).unwrap_err().0;
            assert!(e.contains("bucket index is not an integer"), "{bad}: {e}");
        }
        doc.set("buckets", Json::parse(&format!("[[{idx},1]]")).unwrap());
        assert!(QuantileSketch::from_state_json(&doc).is_ok());
        for bad in ["-4", "2.5", "1e300"] {
            doc.set("version", Json::parse(bad).unwrap());
            let e = QuantileSketch::from_state_json(&doc).unwrap_err().0;
            assert!(
                e.contains("version is not a non-negative integer"),
                "{bad}: {e}"
            );
        }
    }

    /// Every bucket index is computed with `LN_GAMMA`, so it must be the
    /// very value `GAMMA.ln()` returns, and `GAMMA` the one `(1+α)/(1−α)`
    /// computes at run time.
    #[test]
    fn ln_gamma_has_the_bits_of_gamma_ln() {
        assert_eq!(LN_GAMMA.to_bits(), GAMMA.ln().to_bits());
        let alpha = std::hint::black_box(DEFAULT_ALPHA);
        assert_eq!(GAMMA.to_bits(), ((1.0 + alpha) / (1.0 - alpha)).to_bits());
    }

    /// No writer emits version 0, so the reader refuses it like any
    /// other version but its own.
    #[test]
    fn state_of_version_0_is_refused() {
        let mut state = sketch_of(&[1.0], 0).state_json();
        state.set("version", 0u64);
        let e = QuantileSketch::from_state_json(&state).unwrap_err().0;
        assert!(e.contains("version 0 is not supported"), "{e}");
    }
}
