//! `obs` — workspace-wide telemetry.
//!
//! The paper's contribution is *attributing* inflated delay to specific
//! layers (SDIO bus sleep, 802.11 adaptive PSM, runtime overhead). This
//! crate gives every layer a cheap way to report what it sees:
//!
//! - [`metrics::Snapshot`] — the name-sorted counters, gauges and
//!   [`metrics::Hist`] histograms a run's layers export when it is read,
//!   and the one place counts are held and merged across runs
//!   ([`metrics::Snapshot::merge`]).
//! - [`sketch::QuantileSketch`] — the mergeable, censoring-aware quantile
//!   sketch behind every histogram and every fleet campaign statistic.
//! - [`trace::Tracer`] — per-probe causal spans with parent/child
//!   links and typed attributes; finished traces render as waterfalls
//!   and export as Chrome `trace_event` JSON.
//! - [`prof`] — self-profiling: wall-clock + allocation cost per
//!   *engine* phase (as opposed to simulated time), with folded-stack
//!   and Chrome-trace exporters and a zero-cost disabled path.
//! - [`export`] — JSON-lines and Prometheus-style text exporters over a
//!   [`metrics::Snapshot`].
//! - [`log`] — a tiny leveled stderr logger (`obs::info!`, `obs::warn!`,
//!   ...) so human logs never interleave with machine output on stdout.
//! - [`json`] — a minimal JSON value type and [`json::ToJson`] trait,
//!   with a `#[derive(ToJson)]` macro, used by exporters and by the
//!   experiment binaries in place of external serializers.
//!
//! Each question about a run has one record. Where a probe's delay went
//! is its spans; what each layer counted is that layer's own stats,
//! exported to a snapshot when the run is read; what the host paid is
//! the profiler. What went over the air (the sniffer captures)
//! and when a packet crossed each driver hook (the phone's timestamp
//! ledger) live with the models that see them, outside this crate.
//!
//! The crate is deliberately dependency-free (besides its own derive
//! macro): it must build in fully offline environments and be safe to
//! pull into every other crate in the workspace.

#![deny(missing_docs)]

// Let `#[derive(ToJson)]` (which expands to paths under `::obs`) work
// inside this crate's own tests.
extern crate self as obs;

pub mod export;
pub mod json;
pub mod log;
pub mod metrics;
pub mod prof;
pub mod sketch;
pub mod trace;

pub use json::{Json, JsonParseError, ToJson};
pub use metrics::{Hist, MetricName, Snapshot, SnapshotStateError, SNAPSHOT_STATE_VERSION};
pub use prof::{
    MergedNode, PhaseCost, ProfNode, ProfPhase, ProfSnapshot, ProfSpan, Profiler, ThreadProf,
};
pub use sketch::{QuantileSketch, SketchStateError};
pub use trace::{
    build_trace_tree, render_waterfall, AttrValue, SpanId, SpanNode, SpanRecord, TraceCtx, TraceId,
    Tracer,
};

/// Derive `ToJson` for a struct with named fields or a unit-variant enum.
pub use obs_macros::ToJson;
