//! The ingest state machine: cumulative shard partials in, one merged
//! campaign out.
//!
//! Shards push *cumulative* state — each push for a given
//! `range_start` supersedes the previous one — so the protocol is
//! naturally idempotent under loss, duplication, and reordering:
//!
//! * a re-sent final is a [`PushOutcome::Duplicate`] that changes no
//!   state (it rewrites its journal file, so its ack is durable),
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
//! Non-final slices are held only so that a newer push for the same
//! slice can replace them; the live *view* folds them onto the merged
//! collector so `/snapshot` and the dashboard always show current
//! totals.
//!
//! The ingest holds one entry per slice start, the latest accepted push
//! for it — exactly what the journal ([`crate::store`]) holds, one file
//! each. A push is classified without changing anything, journaled
//! (when it is new, or a re-sent final), and only then applied;
//! recovery replays the journal's files through the same
//! classification and apply.

use std::collections::BTreeMap;
use std::time::Instant;

use fleet::{CampaignSpec, Collector};
use obs::Json;

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
}

/// The daemon's campaign state. One `Ingest` per expected campaign;
/// pushes are validated against the campaign's
/// [`CampaignSpec::fingerprint`] before anything is merged.
pub struct Ingest {
    spec: CampaignSpec,
    /// Every final slice folded so far, in arrival order.
    merged: Collector,
    /// The latest accepted push per slice start: the entries behind
    /// duplicate, stale and overlap answers, one journal file each.
    slices: BTreeMap<u64, Slice>,
    /// Per-shard-label bookkeeping.
    shards: BTreeMap<String, ShardInfo>,
    /// Optional on-disk journal: accepted pushes are written here
    /// before they change anything, so an acked push survives a daemon
    /// kill.
    store: Option<Store>,
    /// What recovery replayed, when this ingest came from a journal.
    recovery: Option<RecoveryInfo>,
}

/// The latest accepted push for one slice.
enum Slice {
    /// A final, folded into the merged collector: its device count.
    Final(u64),
    /// A non-final cumulative push, held until a newer push for the
    /// slice replaces it.
    Pending(Box<Collector>),
}

impl Slice {
    fn devices(&self) -> u64 {
        match self {
            Slice::Final(devices) => *devices,
            Slice::Pending(c) => c.devices_seen(),
        }
    }

    fn pending(&self) -> Option<&Collector> {
        match self {
            Slice::Final(_) => None,
            Slice::Pending(c) => Some(c),
        }
    }
}

impl Ingest {
    /// An empty ingest for `spec`.
    pub fn new(spec: CampaignSpec) -> Ingest {
        let merged = Collector::new(&spec);
        Ingest {
            spec,
            merged,
            slices: BTreeMap::new(),
            shards: BTreeMap::new(),
            store: None,
            recovery: None,
        }
    }

    /// An ingest journaling to (and recovered from) `store`. Each
    /// journal file is replayed, in start order, through the checks and
    /// classification of a live push (without shard bookkeeping), and
    /// must land as a new slice: a file that does not parse, holds
    /// another slice than its name gives, or overlaps another file is
    /// [`StoreError::Corrupt`]; another campaign's file is
    /// [`StoreError::SpecMismatch`]. Every subsequent accepted push is
    /// journaled before it is applied or acked.
    pub fn with_store(spec: CampaignSpec, store: Store) -> Result<Ingest, StoreError> {
        let mut ingest = Ingest::new(spec);
        for entry in store.recover()? {
            let corrupt = |message: String| StoreError::Corrupt {
                path: entry.path.clone(),
                message,
            };
            let (c, outcome) = ingest
                .classify(&entry.state, entry.done)
                .map_err(|e| match e {
                    IngestError::SpecMismatch(m) => {
                        StoreError::SpecMismatch(format!("{}: {m}", entry.path.display()))
                    }
                    e => corrupt(e.to_string()),
                })?;
            if c.range_start() != entry.start {
                return Err(corrupt(format!(
                    "holds the slice starting at device {}, not {}",
                    c.range_start(),
                    entry.start
                )));
            }
            if ingest.slices.contains_key(&entry.start) {
                return Err(corrupt(format!(
                    "a second file for the slice starting at device {}",
                    entry.start
                )));
            }
            if !matches!(outcome, PushOutcome::Absorbed | PushOutcome::Buffered) {
                return Err(corrupt(format!(
                    "replays as `{}`, not as a new slice",
                    outcome.status()
                )));
            }
            ingest.apply(c, entry.done);
        }
        let finals = ingest.slices.values().filter(|s| s.pending().is_none());
        let absorbed_slices = finals.count() as u64;
        ingest.recovery = Some(RecoveryInfo {
            merged_devices: ingest.devices_absorbed(),
            absorbed_slices,
            slices_loaded: ingest.slices.len() as u64 - absorbed_slices,
        });
        ingest.store = Some(store);
        Ok(ingest)
    }

    /// Recovery provenance, when this ingest was restored from a
    /// journal (surfaced on `/status` and `/healthz`).
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.recovery.as_ref()
    }

    /// Write the rendered `snapshot.json` beside the journal — the
    /// SIGTERM/SIGINT shutdown path. Every accepted push is already on
    /// disk. A no-op without a store.
    pub fn flush_to_store(&self) -> Result<(), StoreError> {
        match &self.store {
            Some(store) => store.write_raw("snapshot.json", &self.snapshot_pretty()),
            None => Ok(()),
        }
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
        self.slices.values().map(Slice::devices).sum()
    }

    /// Whether final slices covering the whole population have folded.
    pub fn complete(&self) -> bool {
        self.merged.devices_seen() == self.spec.devices
    }

    /// Per-shard bookkeeping, label-sorted.
    pub fn shards(&self) -> &BTreeMap<String, ShardInfo> {
        &self.shards
    }

    /// Ingest one push: validate and classify it, journal it if it is
    /// new, fold or hold it, and answer. `bytes` is the frame payload
    /// size (bookkeeping only). A rejected push, and one the journal
    /// could not hold, leaves every piece of campaign state and the
    /// journal untouched.
    pub fn push(
        &mut self,
        shard: &str,
        state: &Json,
        done: bool,
        bytes: u64,
    ) -> Result<Ack, IngestError> {
        let (c, outcome) = self.classify(state, done)?;
        let (start, count) = (c.range_start(), c.devices_seen());
        let new = matches!(outcome, PushOutcome::Absorbed | PushOutcome::Buffered);
        // Durability before the ack: if the journal cannot hold the
        // push, the shard gets a retryable `storage` error and re-sends
        // its cumulative state later. A new push is written before
        // anything changes; a re-sent final rewrites its slice's file,
        // so its ack holds even if that file was removed under us.
        if new || matches!(outcome, PushOutcome::Duplicate) {
            if let Some(store) = &self.store {
                store
                    .write_slice(start, done, state)
                    .map_err(|e| IngestError::Storage(e.to_string()))?;
            }
        }
        if new {
            self.apply(c, done);
        }
        self.note_shard(shard, start, count, done, bytes);
        Ok(Ack {
            outcome,
            devices_absorbed: self.devices_absorbed(),
            devices_view: self.devices_view(),
            complete: self.complete(),
        })
    }

    /// Validate a pushed state and decide, without changing anything,
    /// what it is: a new final to fold, a newer non-final to hold, or an
    /// idempotent duplicate or stale push.
    fn classify(&self, state: &Json, done: bool) -> Result<(Collector, PushOutcome), IngestError> {
        let c = Collector::from_state_json(state).map_err(|e| IngestError::BadState(e.0))?;
        c.verify_spec(&self.spec)
            .map_err(|e| IngestError::SpecMismatch(e.0))?;
        // Everything the view folds together must merge: check against
        // each held collector now, so no later fold can fail.
        let pending = self.slices.values().filter_map(Slice::pending);
        for held in std::iter::once(&self.merged).chain(pending) {
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
        let overlap = Err(IngestError::Overlap {
            start,
            devices: count,
        });
        let held = self.slices.get(&start);
        // A re-send of a folded final is idempotent; anything larger
        // collides with it.
        if let Some(&Slice::Final(folded)) = held {
            return match count.cmp(&folded) {
                std::cmp::Ordering::Equal if done => Ok((c, PushOutcome::Duplicate)),
                std::cmp::Ordering::Greater => overlap,
                _ => Ok((c, PushOutcome::Stale)),
            };
        }
        // Against the neighbours on both sides (a same-start push
        // supersedes rather than collides).
        if let Some((&s, prev)) = self.slices.range(..start).next_back() {
            if s + prev.devices() > start {
                return overlap;
            }
        }
        if let Some((&s, _)) = self.slices.range(start + 1..).next() {
            if end > s {
                return overlap;
            }
        }
        let held = held.map_or(0, Slice::devices);
        let outcome = if count < held || (count == held && !done) {
            PushOutcome::Stale
        } else if done {
            PushOutcome::Absorbed
        } else {
            PushOutcome::Buffered
        };
        Ok((c, outcome))
    }

    /// Take a push [`Ingest::classify`] found new: fold a final into the
    /// merged collector, or hold a non-final.
    fn apply(&mut self, c: Collector, done: bool) {
        let start = c.range_start();
        let slice = if done {
            self.merged
                .absorb_state(&c)
                .expect("classify checked the slice mergeable");
            Slice::Final(c.devices_seen())
        } else {
            Slice::Pending(Box::new(c))
        };
        self.slices.insert(start, slice);
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

    /// Campaign-wide devices/sec: the sum of every live (not done, not
    /// stale) shard's push-delta rate.
    pub fn throughput_dps(&self) -> f64 {
        // fold, not sum: f64's Sum identity is -0.0, which would print
        // as "-0.000" on /metrics when no shard is live.
        self.shards
            .values()
            .filter(|i| !i.done && i.last_push.elapsed().as_secs_f64() < STALE_AFTER_SECS)
            .filter_map(|i| i.rate_dps)
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
        let pending = self.slices.values().filter_map(Slice::pending);
        for held in std::iter::once(&self.merged).chain(pending) {
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
