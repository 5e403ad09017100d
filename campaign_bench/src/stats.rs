//! Order statistics for the benchmark's own samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile `p` (in `[0, 1]`) of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples a chunk needs for [`MIN_BEYOND_TAIL`] of them to lie beyond
/// its percentile `per_mille` / 1000 (1,000 for p99, 200 for p95).
pub fn min_chunk(per_mille: usize) -> usize {
    (MIN_BEYOND_TAIL * 1000).div_ceil(1000 - per_mille)
}

/// Percentile `per_mille` / 1000 of `xs` as the median of that
/// percentile over consecutive chunks of at least [`min_chunk`] samples,
/// with the number of chunks; `None` when `xs` is shorter than one
/// chunk. A short burst of host stalls then moves one chunk's tail, not
/// the run's.
pub fn chunked_tail(xs: &[f64], per_mille: usize) -> Option<(f64, usize)> {
    let chunks = xs.len() / min_chunk(per_mille);
    if chunks == 0 {
        return None;
    }
    let len = xs.len() / chunks;
    let tails: Vec<f64> = (0..chunks)
        .map(|i| {
            let end = if i + 1 == chunks {
                xs.len()
            } else {
                (i + 1) * len
            };
            percentile(&xs[i * len..end], per_mille as f64 / 1000.0)
        })
        .collect();
    Some((median(&tails), chunks))
}

/// Median of `xs` (the mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// FNV-1a over `bytes`: a fingerprint for comparing report bytes
/// across processes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_chunk_keeps_ten_samples_beyond_its_tail() {
        for (per_mille, chunk) in [(999, 10_000), (990, 1_000), (950, 200), (500, 20)] {
            assert_eq!(min_chunk(per_mille), chunk);
            let xs: Vec<f64> = (0..chunk).map(|i| i as f64).collect();
            let at = percentile(&xs, per_mille as f64 / 1000.0);
            assert_eq!(xs.iter().filter(|&&x| x > at).count(), MIN_BEYOND_TAIL);
            // One sample fewer is not a chunk.
            assert_eq!(chunked_tail(&xs[1..], per_mille), None);
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn chunked_tail_takes_the_median_chunk_tail() {
        assert_eq!(chunked_tail(&[1.0; 999], 990), None);
        let flat: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(chunked_tail(&flat, 990), Some((990.0, 1)));
        assert_eq!(chunked_tail(&flat, 950).map(|(_, c)| c), Some(5));
        // Three chunks; one holds a burst of stalls that owns the pooled
        // p99 (40 of 3000 samples) but only that chunk's tail.
        let mut xs = vec![1.0; 3_000];
        for x in &mut xs[1_000..1_040] {
            *x = 100.0;
        }
        assert_eq!(percentile(&xs, 0.99), 100.0);
        assert_eq!(chunked_tail(&xs, 990), Some((1.0, 3)));
        // Every chunk keeps at least the minimum length.
        let (_, chunks) = chunked_tail(&vec![0.0; 2_999], 990).unwrap();
        assert_eq!(chunks, 2);
    }

    #[test]
    fn fnv_distinguishes_bytes() {
        assert_ne!(fnv1a(b"{\"a\":1}"), fnv1a(b"{\"a\":2}"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
