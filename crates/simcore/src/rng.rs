//! Deterministic random number generation for simulation models.
//!
//! Every stochastic element of the testbed (bus wake latency, PSM timeout
//! jitter, contention backoff, link jitter) draws from a [`DetRng`] seeded by
//! the experiment configuration, so a run is a pure function of its seed.
//!
//! The engine is a self-contained xoshiro256++ (public-domain algorithm by
//! Blackman & Vigna) seeded through SplitMix64, so the crate carries no
//! external RNG dependency and the stream is identical on every platform.

use crate::time::SimDuration;

/// SplitMix64's increment, by which its state advances each step.
const SPLITMIX_INCREMENT: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: `x` advanced one step, then mixed. The workspace's one
/// seed mixer: it expands a [`DetRng`] seed into xoshiro state, and
/// derives every fleet device's seed and draws and every wire chaos
/// plan.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX_INCREMENT);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random source with the distribution helpers the models need.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64's first four outputs from `seed`.
        let s = std::array::from_fn(|k| {
            splitmix64(seed.wrapping_add(SPLITMIX_INCREMENT.wrapping_mul(k as u64)))
        });
        DetRng { s }
    }

    /// The next raw 64-bit draw (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut n2 = s2 ^ s0;
        let mut n3 = s3 ^ s1;
        let n1 = s1 ^ n2;
        let n0 = s0 ^ n3;
        n2 ^= t;
        n3 = n3.rotate_left(45);
        self.s = [n0, n1, n2, n3];
        result
    }

    /// Derive an independent child generator. Used to give each node its own
    /// stream so adding a node does not perturb the draws of existing nodes.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        let s: u64 = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::new(s)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 top bits → uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.unit() * (hi - lo)
    }

    /// Uniform integer draw in `[lo, hi]` inclusive.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        let span = hi - lo + 1;
        if span == 0 {
            // Full u64 range.
            return self.next_u64();
        }
        // Unbiased modulo rejection.
        let threshold = span.wrapping_neg() % span;
        loop {
            let r = self.next_u64();
            if r >= threshold {
                return lo + r % span;
            }
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Normal draw via Box–Muller. `std` of zero returns the mean exactly.
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        if std <= 0.0 {
            return mean;
        }
        // Box-Muller; u1 must be strictly positive for ln().
        let u1 = loop {
            let u = self.unit();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std * z
    }

    /// Normal draw clamped to `[lo, hi]`; the standard way the models keep
    /// physically-meaningful latencies non-negative and bounded.
    pub fn normal_clamped(&mut self, mean: f64, std: f64, lo: f64, hi: f64) -> f64 {
        self.normal(mean, std).clamp(lo, hi)
    }

    /// Exponential draw with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = loop {
            let u = self.unit();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// A latency sample: normal in milliseconds, clamped to `[lo_ms, hi_ms]`,
    /// returned as a [`SimDuration`].
    pub fn latency_ms(&mut self, mean_ms: f64, std_ms: f64, lo_ms: f64, hi_ms: f64) -> SimDuration {
        SimDuration::from_ms_f64(self.normal_clamped(mean_ms, std_ms, lo_ms, hi_ms))
    }

    /// Pick a uniformly random element index for a slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        if len <= 1 {
            0
        } else {
            self.uniform_u64(0, len as u64 - 1) as usize
        }
    }
}

/// Specification of a latency distribution, the unit used throughout the
/// phone profiles. All values are in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyDist {
    /// Mean latency in ms.
    pub mean_ms: f64,
    /// Standard deviation in ms.
    pub std_ms: f64,
    /// Lower clamp in ms.
    pub min_ms: f64,
    /// Upper clamp in ms.
    pub max_ms: f64,
}

impl LatencyDist {
    /// A distribution concentrated at a single value.
    pub const fn fixed(ms: f64) -> Self {
        LatencyDist {
            mean_ms: ms,
            std_ms: 0.0,
            min_ms: ms,
            max_ms: ms,
        }
    }

    /// A clamped normal distribution.
    pub const fn normal(mean_ms: f64, std_ms: f64, min_ms: f64, max_ms: f64) -> Self {
        LatencyDist {
            mean_ms,
            std_ms,
            min_ms,
            max_ms,
        }
    }

    /// Draw one latency sample.
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        rng.latency_ms(self.mean_ms, self.std_ms, self.min_ms, self.max_ms)
    }

    /// Draw the sample as fractional milliseconds.
    pub fn sample_ms(&self, rng: &mut DetRng) -> f64 {
        rng.normal_clamped(self.mean_ms, self.std_ms, self.min_ms, self.max_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut root1 = DetRng::new(7);
        let mut root2 = DetRng::new(7);
        let mut a1 = root1.fork(1);
        let mut a2 = root2.fork(1);
        assert_eq!(a1.unit().to_bits(), a2.unit().to_bits());
        let mut b = root1.fork(2);
        assert_ne!(a1.unit().to_bits(), b.unit().to_bits());
    }

    #[test]
    fn unit_stays_in_half_open_interval() {
        let mut rng = DetRng::new(11);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_u64_is_inclusive_and_covers_range() {
        let mut rng = DetRng::new(12);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v = rng.uniform_u64(10, 15);
            assert!((10..=15).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_respects_zero_std() {
        let mut rng = DetRng::new(3);
        for _ in 0..10 {
            assert_eq!(rng.normal(5.0, 0.0), 5.0);
        }
    }

    #[test]
    fn normal_clamped_stays_in_bounds() {
        let mut rng = DetRng::new(4);
        for _ in 0..1000 {
            let x = rng.normal_clamped(10.0, 50.0, 0.0, 20.0);
            assert!((0.0..=20.0).contains(&x));
        }
    }

    #[test]
    fn normal_mean_is_close() {
        let mut rng = DetRng::new(5);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.normal(3.0, 1.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = DetRng::new(6);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean was {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(7);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn uniform_empty_range_returns_lo() {
        let mut rng = DetRng::new(8);
        assert_eq!(rng.uniform(5.0, 5.0), 5.0);
        assert_eq!(rng.uniform_u64(9, 3), 9);
        assert_eq!(rng.index(0), 0);
        assert_eq!(rng.index(1), 0);
    }

    #[test]
    fn latency_dist_fixed_and_sampled() {
        let mut rng = DetRng::new(9);
        let f = LatencyDist::fixed(2.0);
        assert_eq!(f.sample(&mut rng), SimDuration::from_millis(2));
        let d = LatencyDist::normal(10.0, 2.0, 5.0, 15.0);
        for _ in 0..200 {
            let s = d.sample_ms(&mut rng);
            assert!((5.0..=15.0).contains(&s));
        }
    }
}
