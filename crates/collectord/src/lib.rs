//! `collectord` — the campaign control plane: a streaming collector
//! daemon for sharded fleet campaigns.
//!
//! Shards (separate processes, potentially separate machines) push
//! cumulative campaign-state partials over a length-prefixed JSON wire
//! protocol ([`wire::framing`] + [`protocol`]); the daemon validates
//! every push against the expected [`fleet::CampaignSpec`] fingerprint
//! and folds final slices through the same merge algebra as
//! `repro fleet-merge` ([`ingest`]). HTTP endpoints serve the live
//! state ([`daemon`]):
//!
//! | endpoint    | body |
//! |-------------|------|
//! | `/`         | self-contained HTML status dashboard |
//! | `/snapshot` | live campaign JSON — byte-identical to a single-process `fleet.json` once all partitions land |
//! | `/status`   | machine-readable progress + per-shard heartbeats |
//! | `/metrics`  | Prometheus text exposition (the daemon's own counts, ingest gauges, per-shard labelled series) |
//! | `/healthz`  | liveness probe |
//!
//! Everything is `std`-only: hand-rolled HTTP ([`http`]), the obs JSON
//! tree on the wire, `TcpListener` + thread-per-connection serving.
//!
//! The control plane is **crash-safe**: with `--state-dir` the daemon
//! journals every accepted push to disk, one file per slice, *before*
//! it changes anything or is acked ([`store`]), and on restart replays
//! those files through the checks a live push goes through; push clients
//! wrap the wire protocol in seeded reconnect/backoff loops
//! ([`resilient`]); and [`wire::chaos`] + `repro chaos` exercise the
//! whole loop under injected faults and daemon kills.

#![deny(missing_docs)]

pub mod client;
pub mod daemon;
pub mod dashboard;
pub mod http;
pub mod ingest;
pub mod protocol;
pub mod resilient;
pub mod signals;
pub mod store;

pub use client::{PushClient, PushError};
pub use daemon::Daemon;
pub use ingest::{Ingest, ShardInfo};
pub use protocol::{Ack, IngestError, Push, PushOutcome};
pub use resilient::{Delivery, PushStats, ResilientPushClient, RetryPolicy};
pub use store::{RecoveryInfo, Store, StoreError};
