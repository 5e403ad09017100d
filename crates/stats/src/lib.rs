//! # am-stats — statistics for measurement experiments
//!
//! Exactly the statistics the paper reports:
//!
//! * [`Summary`]: mean with a 95% Student-t confidence interval (the
//!   "mean ± CI" cells of Tables 2, 3 and 5);
//! * [`BoxStats`]: box-and-whisker five-number summaries with 1.5·IQR
//!   outlier fencing (Figures 3 and 7);
//! * [`Ecdf`]: empirical CDFs (Figures 8 and 9);
//! * [`quantile`]/[`median`]: R type-7 percentiles;
//! * [`CensoredSample`]: loss-aware quantiles over right-censored probes
//!   (timeouts count toward the denominator instead of being dropped);
//! * [`QuantileSketch`]: the mergeable streaming sketch (defined in
//!   `obs`, re-exported here) with an exactly associative/commutative
//!   `merge()` for population-scale (fleet) aggregation — memory bounded
//!   by the value range, censoring handled per [`CensoredSample`];
//! * [`render`]: ASCII tables, box-plot strips, and CDF plots for the
//!   terminal-based experiment runners;
//! * [`backoff`]: the capped exponential retry backoff, with
//!   caller-supplied jitter, that every retrying component shares;
//! * [`mod@bench`]: the offline wall-clock benchmark harness behind
//!   `repro bench-snapshot`.

#![deny(missing_docs)]

mod backoff;
pub mod bench;
mod boxplot;
mod censored;
mod ecdf;
mod quantile;
pub mod render;
mod sketch;
mod summary;

pub use backoff::backoff;
pub use boxplot::BoxStats;
pub use censored::CensoredSample;
pub use ecdf::Ecdf;
pub use quantile::{median, quantile, quantile_sorted};
pub use render::{render_boxplots, render_cdfs, Table};
pub use sketch::{
    QuantileSketch, SketchStateError, DEFAULT_ALPHA, MIN_VALUE_MS, SKETCH_STATE_VERSION,
};
pub use summary::{t_quantile_975, Summary};
