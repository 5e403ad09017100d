//! # fleet — sharded multi-device measurement campaigns
//!
//! The paper measures one phone at a time; this crate asks the
//! population question: across *N* heterogeneous devices — different
//! SDIO `idletime`s, PSM `Tip`s, listen intervals, beacon intervals,
//! lossy paths, RRC bearers, AcuteMon vs. legacy sparse ping — what do
//! the user-level (`du`), network-level (`dn`) and overhead (`du − dn`)
//! distributions look like?
//!
//! A [`CampaignSpec`] declares the population (weighted
//! [`DeviceClass`] strata). The [`engine`] fans device
//! indices across a fixed pool of OS worker threads; each runs a
//! deterministically-seeded simulation shard per device and folds it
//! straight into a [`Collector`] of its own — mergeable sketches and an
//! [`obs`] snapshot, never raw samples — which it hands back to the
//! calling thread once per segment (see [`engine`]).
//! [`run_device`] folds one device into a [`DevicePartial`] instead,
//! which [`Collector::absorb`] merges into the same state. Device seeds
//! derive from `(campaign_seed, device_index)`, and every piece of
//! collector state merges exactly (integer sketch internals), so the
//! merged [`CampaignReport`] JSON is byte-identical regardless of worker
//! count or completion order.
//!
//! The same determinism extends across *processes*: the collector's
//! full state round-trips through the versioned campaign-state JSON
//! (see [`report`]), which backs both resume checkpoints
//! ([`resume_campaign`]) and `i/k` partition partials
//! ([`run_partition`] + [`merge_partials`]). A killed-and-resumed
//! campaign and a k-way partitioned-and-merged campaign both produce
//! the same bytes as an uninterrupted single-process run.
//!
//! ```
//! use fleet::{run_campaign, CampaignSpec};
//! use obs::ToJson;
//!
//! let spec = CampaignSpec::heterogeneous(2016, 12).with_probes(2);
//! let (a, _) = run_campaign(&spec, 1);
//! let (b, _) = run_campaign(&spec, 4);
//! assert_eq!(a.to_json().to_string(), b.to_json().to_string());
//! ```

#![deny(missing_docs)]

pub mod engine;
pub mod profile;
pub mod report;
pub mod shard;
pub mod spec;

pub use engine::{
    atomic_write, available_parallelism, partition_range, render_scaling, resume_campaign,
    run_campaign, run_campaign_opts, run_partition, run_partition_opts, scaling_table,
    CheckpointPolicy, ProgressFn, ProgressSink, RunOptions, RunStats, ScalingRow,
};
pub use profile::{CampaignProfile, StratumCost};
pub use report::{
    merge_partials, CampaignReport, CampaignStateError, Collector, StratumReport,
    CAMPAIGN_STATE_FORMAT, CAMPAIGN_STATE_VERSION,
};
pub use shard::{run_device, run_device_prof, DevicePartial};
pub use spec::{
    splitmix64, CalibrationSweep, CampaignSpec, DeviceClass, DiurnalSchedule, Radio, RttDist, Tool,
};
