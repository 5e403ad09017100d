//! The mergeable quantile sketch, defined in [`obs::sketch`] so that
//! `obs` histograms can be built on it, and re-exported here beside the
//! rest of the paper's statistics.

pub use obs::sketch::{
    QuantileSketch, SketchStateError, DEFAULT_ALPHA, MIN_VALUE_MS, SKETCH_STATE_VERSION,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CensoredSample;

    #[test]
    fn censoring_matches_censored_sample_identifiability() {
        // Same data into both estimators: the sketch must report a
        // quantile exactly when CensoredSample does (same rank rule),
        // and when it does, the value must sit within the sketch's
        // accuracy of the exact nearest-rank order statistic.
        let xs: Vec<f64> = (1..=400u32)
            .map(|i| 0.05 + f64::from(i * 7919 % 401))
            .collect();
        let n_obs = xs.len();
        for censored in [0usize, 40, 150, 201, 399] {
            let mut s = QuantileSketch::new();
            xs.iter().for_each(|&v| s.observe(v));
            (0..censored).for_each(|_| s.observe_censored());
            let cs = CensoredSample::from_parts(xs.clone(), censored);
            let n = n_obs + censored;
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for i in 0..=20 {
                let p = i as f64 / 20.0;
                let rank = ((p * (n - 1) as f64).ceil() as usize).min(n - 1);
                match (s.quantile(p), cs.quantile(p)) {
                    (Some(est), Some(_)) => {
                        let exact = sorted[rank];
                        let rel = (est - exact).abs() / exact.max(1e-9);
                        assert!(
                            rel <= DEFAULT_ALPHA + 1e-9,
                            "p={p} censored={censored}: {est} vs {exact}"
                        );
                    }
                    (None, None) => {}
                    (got, want) => {
                        panic!("p={p} censored={censored}: sketch {got:?} vs exact {want:?}")
                    }
                }
            }
        }
    }
}
