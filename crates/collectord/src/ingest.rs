//! The ingest state machine: cumulative shard partials in, one merged
//! campaign out.
//!
//! Shards push *cumulative* state — each push for a given
//! `range_start` supersedes the previous one — so the protocol is
//! naturally idempotent under loss, duplication, and reordering:
//!
//! * a re-sent push is a [`PushOutcome::Duplicate`] no-op,
//! * a reordered older cumulative push is [`PushOutcome::Stale`] and
//!   dropped,
//! * a push for a slice that collides with a different shard's slice is
//!   a typed [`IngestError::Overlap`] rejection,
//! * a push whose state cannot merge with what is held (a renamed
//!   stratum, a histogram with other bounds, a sketch of another
//!   accuracy) is a typed [`IngestError::BadState`] rejection.
//!
//! A **final** slice (`final: true`, the shard's range complete) folds
//! into the merged collector the moment it arrives, in whatever order
//! the finals land — through the same [`fleet::Collector::absorb_state`]
//! that `repro fleet-merge` uses. Every merge is exact, so once every
//! partition has landed [`Ingest::snapshot_pretty`] is byte-identical to
//! the one-shot merge and to an uninterrupted single-process run.
//! Non-final slices wait in a pending map only so that a newer push for
//! the same slice can replace them; the live *view* folds them onto the
//! merged collector so `/snapshot` and the dashboard always show
//! current totals.

use std::collections::BTreeMap;
use std::time::Instant;

use fleet::{CampaignSpec, Collector};
use obs::Json;
use wire::telemetry::ShardTelemetry;

use crate::protocol::{Ack, IngestError, PushOutcome};
use crate::store::{RecoveryInfo, Store, StoreError};

/// Shards whose last heartbeat is older than this are excluded from
/// throughput and ETA math: a stalled shard's historical rate says
/// nothing about when the campaign will finish.
pub const STALE_AFTER_SECS: f64 = 30.0;

/// Per-shard ingest bookkeeping, surfaced on `/metrics` (labelled
/// series) and the dashboard.
#[derive(Debug, Clone)]
pub struct ShardInfo {
    /// First device index of the shard's slice.
    pub range_start: u64,
    /// Devices covered by the shard's latest cumulative push.
    pub devices_pushed: u64,
    /// Pushes accepted from this shard (including duplicates/stale).
    pub pushes: u64,
    /// Payload bytes received from this shard.
    pub bytes: u64,
    /// Whether the shard declared its slice complete.
    pub done: bool,
    /// When the last push arrived (heartbeat for stall detection).
    pub last_push: Instant,
    /// Devices/sec derived from consecutive push deltas (`None` until
    /// two device-advancing pushes arrive far enough apart to divide
    /// safely).
    pub rate_dps: Option<f64>,
    /// The shard's self-reported live telemetry, when its engine sent
    /// any (worker rates, queue depth, profiling phase split).
    pub telemetry: Option<ShardTelemetry>,
}

impl ShardInfo {
    /// Best devices/sec estimate: the daemon-derived push-delta rate,
    /// falling back to the shard's self-reported figure.
    pub fn best_rate_dps(&self) -> Option<f64> {
        self.rate_dps.or_else(|| {
            self.telemetry
                .as_ref()
                .map(|t| t.devices_per_sec)
                .filter(|r| *r > 0.0)
        })
    }
}

/// The daemon's campaign state. One `Ingest` per expected campaign;
/// pushes are validated against the campaign's
/// [`CampaignSpec::fingerprint`] before anything is merged.
pub struct Ingest {
    spec: CampaignSpec,
    /// Every final slice folded so far, in arrival order.
    merged: Collector,
    /// `(range_start, devices)` of every folded final slice, sorted by
    /// start: the ledger behind duplicate, stale and overlap answers.
    absorbed: Vec<(u64, u64)>,
    /// Non-final cumulative slices keyed by `range_start`.
    pending: BTreeMap<u64, Collector>,
    /// Per-shard-label bookkeeping.
    shards: BTreeMap<String, ShardInfo>,
    /// Optional on-disk journal: accepted pushes persist here *before*
    /// they are acked, so an acked push survives a daemon kill.
    store: Option<Store>,
    /// What recovery restored, when this ingest came from a journal.
    recovery: Option<RecoveryInfo>,
    /// Set when a journal write failed after in-memory state already
    /// changed. While set, *every* push (even an idempotent duplicate)
    /// must first re-sync the full journal before it may be acked —
    /// otherwise a duplicate's ack would claim durability the disk
    /// never delivered.
    dirty: bool,
}

impl Ingest {
    /// An empty ingest for `spec`.
    pub fn new(spec: CampaignSpec) -> Ingest {
        let merged = Collector::new(&spec);
        Ingest {
            spec,
            merged,
            absorbed: Vec::new(),
            pending: BTreeMap::new(),
            shards: BTreeMap::new(),
            store: None,
            recovery: None,
            dirty: false,
        }
    }

    /// An ingest journaling to (and recovered from) `store`. Whatever
    /// the journal holds for `spec` — the merged collector, its ledger
    /// of folded slices, the pending slices — is restored first. Every
    /// subsequent accepted push is persisted before it is acked.
    pub fn with_store(spec: CampaignSpec, store: Store) -> Result<Ingest, StoreError> {
        let recovered = store.recover(&spec)?;
        Ok(Ingest {
            merged: recovered.merged.unwrap_or_else(|| Collector::new(&spec)),
            spec,
            absorbed: recovered.absorbed,
            pending: recovered.slices,
            shards: BTreeMap::new(),
            store: Some(store),
            recovery: Some(recovered.info),
            dirty: false,
        })
    }

    /// Recovery provenance, when this ingest was restored from a
    /// journal (surfaced on `/status` and `/healthz`).
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.recovery.as_ref()
    }

    /// Persist the journal side of one accepted push for the slice at
    /// `start`: a pending slice rewrites its slice file; a folded final
    /// rewrites `merged.json` (state and ledger), then drops the slice
    /// file its non-final predecessor may have left.
    fn persist(&self, start: u64) -> Result<(), StoreError> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        match self.pending.get(&start) {
            Some(slice) => store.write_slice(slice),
            None => {
                store.write_merged(&self.merged, &self.absorbed)?;
                store.remove_slice(start)
            }
        }
    }

    /// Rewrite the whole journal from in-memory state — the recovery
    /// path for a previously failed incremental write. Slice files for
    /// slices that folded since are left behind; restart-recovery
    /// discards every slice file whose start is in the ledger anyway.
    fn resync_store(&mut self) -> Result<(), StoreError> {
        if let Some(store) = &self.store {
            store.write_merged(&self.merged, &self.absorbed)?;
            for slice in self.pending.values() {
                store.write_slice(slice)?;
            }
        }
        self.dirty = false;
        Ok(())
    }

    /// Flush everything to the journal (merged collector, every pending
    /// slice, and a rendered `snapshot.json`) — the SIGTERM/SIGINT
    /// shutdown path. A no-op without a store.
    pub fn flush_to_store(&self) -> Result<(), StoreError> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        store.write_merged(&self.merged, &self.absorbed)?;
        for slice in self.pending.values() {
            store.write_slice(slice)?;
        }
        store.write_raw("snapshot.json", &self.snapshot_pretty())?;
        Ok(())
    }

    /// The campaign this ingest expects.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Devices in the folded final slices, whatever order they came in.
    pub fn devices_absorbed(&self) -> u64 {
        self.merged.devices_seen()
    }

    /// Devices in the live view: folded finals plus pending slices.
    pub fn devices_view(&self) -> u64 {
        self.merged.devices_seen()
            + self
                .pending
                .values()
                .map(Collector::devices_seen)
                .sum::<u64>()
    }

    /// Whether final slices covering the whole population have folded.
    pub fn complete(&self) -> bool {
        self.merged.devices_seen() == self.spec.devices
    }

    /// Per-shard bookkeeping, label-sorted.
    pub fn shards(&self) -> &BTreeMap<String, ShardInfo> {
        &self.shards
    }

    /// Ingest one push: validate, fold or hold, and answer. `bytes` is
    /// the frame payload size (bookkeeping only). Rejected pushes leave
    /// every piece of campaign state, and the journal, untouched.
    pub fn push(
        &mut self,
        shard: &str,
        state: &Json,
        done: bool,
        bytes: u64,
    ) -> Result<Ack, IngestError> {
        // A previous journal write failed *after* in-memory state had
        // already changed. Until the journal is whole again no push may
        // be acked — not even an idempotent Duplicate, whose ack would
        // otherwise claim a durability the disk never delivered.
        if self.dirty {
            self.resync_store()
                .map_err(|e| IngestError::Storage(e.to_string()))?;
        }
        let c = Collector::from_state_json(state).map_err(|e| IngestError::BadState(e.0))?;
        c.verify_spec(&self.spec)
            .map_err(|e| IngestError::SpecMismatch(e.0))?;
        // Everything the view folds together must merge: check against
        // each held collector now, so no later fold can fail.
        for held in std::iter::once(&self.merged).chain(self.pending.values()) {
            held.check_mergeable(&c)
                .map_err(|e| IngestError::BadState(e.0))?;
        }
        let (start, count) = (c.range_start(), c.devices_seen());
        let end = start + count;
        if end > self.spec.devices {
            return Err(IngestError::RangeOutOfBounds {
                start,
                end,
                devices: self.spec.devices,
            });
        }

        let outcome = self.classify_and_store(start, count, c, done)?;
        if matches!(outcome, PushOutcome::Absorbed | PushOutcome::Buffered) {
            // Durability before acknowledgement: if the journal cannot
            // hold the push, the shard gets a retryable `storage` error
            // and re-sends its cumulative state later.
            if let Err(e) = self.persist(start) {
                self.dirty = true;
                return Err(IngestError::Storage(e.to_string()));
            }
        }
        self.note_shard(shard, start, count, done, bytes);
        Ok(Ack {
            outcome,
            devices_absorbed: self.devices_absorbed(),
            devices_view: self.devices_view(),
            complete: self.complete(),
        })
    }

    /// Decide what to do with a validated slice: fold a new final, hold
    /// a newer non-final, or answer with an idempotent outcome.
    fn classify_and_store(
        &mut self,
        start: u64,
        count: u64,
        c: Collector,
        done: bool,
    ) -> Result<PushOutcome, IngestError> {
        let overlap = Err(IngestError::Overlap {
            start,
            devices: count,
        });
        // Against the folded finals: a re-send of one is idempotent,
        // anything else that touches one collides.
        let at = self.absorbed.partition_point(|&(s, _)| s < start);
        if let Some(&(s, folded)) = self.absorbed.get(at) {
            if s == start {
                return match count.cmp(&folded) {
                    std::cmp::Ordering::Equal if done => Ok(PushOutcome::Duplicate),
                    std::cmp::Ordering::Greater => overlap,
                    _ => Ok(PushOutcome::Stale),
                };
            }
            if start + count > s {
                return overlap;
            }
        }
        if at > 0 {
            let (s, n) = self.absorbed[at - 1];
            if s + n > start {
                return overlap;
            }
        }
        // Against the pending neighbours on both sides (a same-start
        // push supersedes rather than collides).
        if let Some((&ps, prev)) = self.pending.range(..start).next_back() {
            if ps + prev.devices_seen() > start {
                return overlap;
            }
        }
        if let Some((&ns, _)) = self.pending.range(start + 1..).next() {
            if start + count > ns {
                return overlap;
            }
        }

        let held = self.pending.get(&start).map_or(0, Collector::devices_seen);
        if count < held || (count == held && !done) {
            return Ok(PushOutcome::Stale);
        }
        if done {
            self.merged
                .absorb_state(&c)
                .map_err(|e| IngestError::BadState(e.0))?;
            self.absorbed.insert(at, (start, count));
            self.pending.remove(&start);
            Ok(PushOutcome::Absorbed)
        } else {
            self.pending.insert(start, c);
            Ok(PushOutcome::Buffered)
        }
    }

    fn note_shard(&mut self, shard: &str, start: u64, count: u64, done: bool, bytes: u64) {
        let now = Instant::now();
        let info = self.shards.entry(shard.to_string()).or_insert(ShardInfo {
            range_start: start,
            devices_pushed: 0,
            pushes: 0,
            bytes: 0,
            done: false,
            last_push: now,
            rate_dps: None,
            telemetry: None,
        });
        // Devices/sec from consecutive push deltas. Guard the division:
        // a burst of pushes in the same instant (dt ≈ 0) or a push that
        // advances nothing keeps the previous estimate instead of
        // producing ∞/NaN from a stale heartbeat delta.
        if count > info.devices_pushed {
            let dt = now.duration_since(info.last_push).as_secs_f64();
            if dt > 1e-3 && info.pushes > 0 {
                info.rate_dps = Some((count - info.devices_pushed) as f64 / dt);
            }
        }
        info.range_start = start;
        info.devices_pushed = info.devices_pushed.max(count);
        info.pushes += 1;
        info.bytes += bytes;
        info.done |= done;
        info.last_push = now;
    }

    /// Attach a shard's self-reported telemetry (the optional
    /// `telemetry` field of a push). Bookkeeping only — never touches
    /// campaign state.
    pub fn note_telemetry(&mut self, shard: &str, telemetry: ShardTelemetry) {
        if let Some(info) = self.shards.get_mut(shard) {
            info.telemetry = Some(telemetry);
        }
    }

    /// Campaign-wide devices/sec: the sum of every live (not done, not
    /// stale) shard's best rate estimate.
    pub fn throughput_dps(&self) -> f64 {
        // fold, not sum: f64's Sum identity is -0.0, which would print
        // as "-0.000" on /metrics when no shard is live.
        self.shards
            .values()
            .filter(|i| !i.done && i.last_push.elapsed().as_secs_f64() < STALE_AFTER_SECS)
            .filter_map(ShardInfo::best_rate_dps)
            .fold(0.0, |acc, r| acc + r)
    }

    /// Estimated seconds until the whole population is covered, from
    /// the live view and the current throughput. `None` when no live
    /// shard has a usable rate (all stalled, done, or too young) — the
    /// caller renders "unknown" instead of dividing by zero.
    pub fn eta_secs(&self) -> Option<f64> {
        if self.complete() {
            return Some(0.0);
        }
        let rate = self.throughput_dps();
        if rate <= 1e-9 {
            return None;
        }
        let remaining = self.spec.devices.saturating_sub(self.devices_view());
        Some(remaining as f64 / rate)
    }

    /// The live view: the merged collector plus every pending slice,
    /// folded with [`Collector::absorb_state`]. Exact in every number;
    /// once [`Ingest::complete`], the view serializes exactly like the
    /// merged collector.
    pub fn view(&self) -> Collector {
        let mut v = Collector::new(&self.spec);
        for held in std::iter::once(&self.merged).chain(self.pending.values()) {
            v.absorb_state(held)
                .expect("held slices were checked mergeable when pushed");
        }
        v
    }

    /// The `/snapshot` body: the live campaign report, pretty-printed.
    /// Byte-identical to `repro fleet-merge` output (and to an
    /// uninterrupted single-process `fleet.json`) once all partitions
    /// have landed.
    pub fn snapshot_pretty(&self) -> String {
        use obs::ToJson;
        self.view().report().to_json().to_string_pretty()
    }
}
