//! The on-disk ingest journal: durable campaign state across daemon
//! restarts.
//!
//! The store keeps one directory (`--state-dir`) holding:
//!
//! * `merged.json` — every folded final slice, wrapped in a versioned
//!   header that also records the ledger: the `(range_start, devices)`
//!   of every folded slice, sorted by start (so a re-sent final is
//!   still classified as a duplicate, not an overlap, after a
//!   restart). The embedded `state` document is the
//!   `acutemon-fleet-campaign-state` format.
//! * `slice-<start>.json` — one file per pending (non-final)
//!   cumulative slice, wrapped with the same header. A newer cumulative
//!   push for the same `range_start` atomically replaces the file; the
//!   slice's final push *compacts* it (writes `merged.json`, then
//!   deletes the slice file).
//!
//! Every write goes through [`fleet::atomic_write_json`] — write
//! `.tmp`, fsync, rename — and the daemon persists **before acking**,
//! so an acked push is a durable push. Crash ordering is safe at every
//! point: a kill between writing `merged.json` and deleting a folded
//! slice's file leaves a slice file whose `range_start` is in the
//! ledger, which recovery recognizes as a finished compaction and
//! discards.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use fleet::{CampaignSpec, Collector};
use obs::Json;

/// `format` tag of the `merged.json` wrapper document.
pub const INGEST_STATE_FORMAT: &str = "collectord-ingest-state";

/// `format` tag of the `slice-<start>.json` wrapper documents.
pub const INGEST_SLICE_FORMAT: &str = "collectord-ingest-slice";

/// Version of the journal wrapper schema; recovery rejects anything
/// newer.
pub const INGEST_STATE_VERSION: u64 = 1;

/// A failure to persist or recover journal state.
#[derive(Debug)]
pub enum StoreError {
    /// The filesystem failed underneath the journal.
    Io(std::io::Error),
    /// A journal file exists but does not parse or fails validation.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was wrong with it.
        message: String,
    },
    /// The journal belongs to a different campaign than the daemon was
    /// started for (fingerprint mismatch) — refusing to merge two
    /// campaigns into one snapshot.
    SpecMismatch(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "ingest journal i/o error: {e}"),
            StoreError::Corrupt { path, message } => {
                write!(f, "corrupt journal file {}: {message}", path.display())
            }
            StoreError::SpecMismatch(m) => write!(f, "journal campaign mismatch: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// What recovery found in the state directory — surfaced on `/status`
/// and `/healthz` so an operator can tell a recovered daemon from a
/// fresh one.
#[derive(Debug, Clone, Default)]
pub struct RecoveryInfo {
    /// Devices restored into the merged collector.
    pub merged_devices: u64,
    /// Final slices that had already been folded before the restart.
    pub absorbed_slices: u64,
    /// Pending slices restored from `slice-*.json` files.
    pub slices_loaded: u64,
    /// Stale slice files discarded (already compacted into the merged
    /// collector before the crash; the delete never happened).
    pub slices_discarded: u64,
}

impl RecoveryInfo {
    /// Whether recovery restored any state at all.
    pub fn recovered_anything(&self) -> bool {
        self.merged_devices > 0 || self.slices_loaded > 0 || self.slices_discarded > 0
    }

    /// The provenance object embedded in `/status`.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object();
        doc.set("merged_devices", self.merged_devices);
        doc.set("absorbed_slices", self.absorbed_slices);
        doc.set("slices_loaded", self.slices_loaded);
        doc.set("slices_discarded", self.slices_discarded);
        doc
    }
}

/// Everything recovery found, for the ingest state machine to resume
/// from.
#[derive(Default)]
pub struct Recovered {
    /// The merged collector, when `merged.json` existed.
    pub merged: Option<Collector>,
    /// `(range_start, devices)` of every final slice already folded,
    /// sorted by start.
    pub absorbed: Vec<(u64, u64)>,
    /// Pending (non-final) slices keyed by `range_start`.
    pub slices: BTreeMap<u64, Collector>,
    /// Provenance counters for `/status`.
    pub info: RecoveryInfo,
}

/// A handle on one ingest state directory.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Open (creating if needed) the state directory at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Store { dir })
    }

    /// The state directory this store journals into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn merged_path(&self) -> PathBuf {
        self.dir.join("merged.json")
    }

    fn slice_path(&self, start: u64) -> PathBuf {
        self.dir.join(format!("slice-{start}.json"))
    }

    fn header(&self, format: &str, fingerprint: u64) -> Json {
        let mut doc = Json::object();
        doc.set("format", format);
        doc.set("version", INGEST_STATE_VERSION);
        doc.set("spec_fingerprint", format!("{fingerprint:016x}"));
        doc
    }

    /// Atomically persist the merged collector and its ledger of folded
    /// slices.
    pub fn write_merged(
        &self,
        merged: &Collector,
        absorbed: &[(u64, u64)],
    ) -> Result<(), StoreError> {
        let mut doc = self.header(INGEST_STATE_FORMAT, merged.fingerprint());
        let mut ledger = Json::array();
        for &(s, c) in absorbed {
            let mut row = Json::array();
            row.push(s);
            row.push(c);
            ledger.push(row);
        }
        doc.set("absorbed", ledger);
        doc.set("state", merged.state_json());
        fleet::atomic_write_json(&self.merged_path(), &doc)?;
        Ok(())
    }

    /// Atomically persist one pending cumulative slice (replacing any
    /// previous push for the same `range_start`).
    pub fn write_slice(&self, slice: &Collector) -> Result<(), StoreError> {
        let mut doc = self.header(INGEST_SLICE_FORMAT, slice.fingerprint());
        doc.set("range_start", slice.range_start());
        doc.set("state", slice.state_json());
        fleet::atomic_write_json(&self.slice_path(slice.range_start()), &doc)?;
        Ok(())
    }

    /// Atomically write an arbitrary rendered document (e.g. the final
    /// `snapshot.json` the shutdown flush leaves behind) into the state
    /// directory, with the same `.tmp` → fsync → rename discipline as
    /// the journal files.
    pub fn write_raw(&self, name: &str, body: &str) -> Result<(), StoreError> {
        use std::io::Write;
        let path = self.dir.join(name);
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// Remove a compacted slice file (folded into `merged.json`). A
    /// missing file is fine — compaction is idempotent.
    pub fn remove_slice(&self, start: u64) -> Result<(), StoreError> {
        match std::fs::remove_file(self.slice_path(start)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// Load everything the journal holds for `spec`, validating every
    /// file's format, version, and campaign fingerprint. Slice files
    /// whose start is in the ledger (compacted before a crash deleted
    /// them) are discarded and counted; anything unparseable is a hard
    /// [`StoreError::Corrupt`] — recovery never silently drops campaign
    /// data.
    pub fn recover(&self, spec: &CampaignSpec) -> Result<Recovered, StoreError> {
        let mut out = Recovered::default();
        let merged_path = self.merged_path();
        if merged_path.exists() {
            let doc = self.read_doc(&merged_path)?;
            self.check_header(&merged_path, &doc, INGEST_STATE_FORMAT, spec)?;
            let state = doc.get("state").ok_or_else(|| StoreError::Corrupt {
                path: merged_path.clone(),
                message: "missing `state` field".to_string(),
            })?;
            let merged = Collector::from_state_json(state).map_err(|e| StoreError::Corrupt {
                path: merged_path.clone(),
                message: e.0,
            })?;
            merged
                .verify_spec(spec)
                .map_err(|e| StoreError::SpecMismatch(e.0))?;
            let ledger =
                doc.get("absorbed")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| StoreError::Corrupt {
                        path: merged_path.clone(),
                        message: "missing or non-array `absorbed` ledger".to_string(),
                    })?;
            for row in ledger {
                let pair =
                    row.as_arr()
                        .filter(|r| r.len() == 2)
                        .ok_or_else(|| StoreError::Corrupt {
                            path: merged_path.clone(),
                            message: "absorbed ledger rows must be [start, devices] pairs"
                                .to_string(),
                        })?;
                let num = |j: &Json| j.as_f64().map(|v| v as u64);
                match (num(&pair[0]), num(&pair[1])) {
                    (Some(s), Some(c)) => out.absorbed.push((s, c)),
                    _ => {
                        return Err(StoreError::Corrupt {
                            path: merged_path,
                            message: "absorbed ledger rows must be numeric".to_string(),
                        })
                    }
                }
            }
            out.absorbed.sort_unstable();
            out.info.merged_devices = merged.devices_seen();
            out.info.absorbed_slices = out.absorbed.len() as u64;
            out.merged = Some(merged);
        }

        let mut slice_paths: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("slice-") && n.ends_with(".json"))
            })
            .collect();
        slice_paths.sort();
        for path in slice_paths {
            let doc = self.read_doc(&path)?;
            self.check_header(&path, &doc, INGEST_SLICE_FORMAT, spec)?;
            let state = doc.get("state").ok_or_else(|| StoreError::Corrupt {
                path: path.clone(),
                message: "missing `state` field".to_string(),
            })?;
            let collector = Collector::from_state_json(state).map_err(|e| StoreError::Corrupt {
                path: path.clone(),
                message: e.0,
            })?;
            collector
                .verify_spec(spec)
                .map_err(|e| StoreError::SpecMismatch(e.0))?;
            let start = collector.range_start();
            if out
                .absorbed
                .binary_search_by_key(&start, |&(s, _)| s)
                .is_ok()
            {
                // Compacted into merged.json before the crash; only the
                // delete was lost. Finish the compaction now.
                self.remove_slice(start)?;
                out.info.slices_discarded += 1;
                continue;
            }
            out.info.slices_loaded += 1;
            out.slices.insert(start, collector);
        }
        Ok(out)
    }

    fn read_doc(&self, path: &Path) -> Result<Json, StoreError> {
        let body = std::fs::read_to_string(path)?;
        Json::parse(&body).map_err(|e| StoreError::Corrupt {
            path: path.to_path_buf(),
            message: format!("not JSON: {e}"),
        })
    }

    fn check_header(
        &self,
        path: &Path,
        doc: &Json,
        format: &str,
        spec: &CampaignSpec,
    ) -> Result<(), StoreError> {
        let corrupt = |message: String| StoreError::Corrupt {
            path: path.to_path_buf(),
            message,
        };
        match doc.get("format").and_then(Json::as_str) {
            Some(f) if f == format => {}
            other => {
                return Err(corrupt(format!(
                    "expected format `{format}`, got {other:?}"
                )))
            }
        }
        let version = doc
            .get("version")
            .and_then(Json::as_f64)
            .ok_or_else(|| corrupt("missing `version`".to_string()))? as u64;
        if version > INGEST_STATE_VERSION {
            return Err(corrupt(format!(
                "journal version {version} is newer than supported {INGEST_STATE_VERSION}"
            )));
        }
        let fp = doc
            .get("spec_fingerprint")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| corrupt("missing or non-hex `spec_fingerprint`".to_string()))?;
        if fp != spec.fingerprint() {
            return Err(StoreError::SpecMismatch(format!(
                "journal {} was written for campaign fingerprint {fp:016x}, daemon expects \
                 {:016x}",
                path.display(),
                spec.fingerprint()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("collectord-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn merged_state_round_trips_with_ledger() {
        let spec = CampaignSpec::heterogeneous(5, 12).with_probes(1);
        let dir = tmpdir("merged");
        let store = Store::open(&dir).unwrap();
        let (c, _) = fleet::run_partition(&spec, 1, 0, 2);
        store.write_merged(&c, &[(0, c.devices_seen())]).unwrap();
        let rec = store.recover(&spec).unwrap();
        let merged = rec.merged.expect("merged restored");
        assert_eq!(merged.devices_seen(), c.devices_seen());
        assert_eq!(rec.absorbed, vec![(0, c.devices_seen())]);
        assert_eq!(rec.info.merged_devices, c.devices_seen());
        assert_eq!(
            merged.state_json().to_string_pretty(),
            c.state_json().to_string_pretty(),
            "journal round-trip must be byte-exact"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_slice_behind_the_frontier_is_discarded() {
        // The folded slice is the *second* partition, not at device 0:
        // its leftover slice file is recognized by the ledger entry for
        // its start.
        let spec = CampaignSpec::heterogeneous(5, 12).with_probes(1);
        let dir = tmpdir("stale");
        let store = Store::open(&dir).unwrap();
        let (c1, _) = fleet::run_partition(&spec, 1, 1, 2);
        let mut merged = fleet::Collector::new(&spec);
        merged.absorb_state(&c1).unwrap();
        store.write_merged(&merged, &[(6, 6)]).unwrap();
        // Its last non-final push is still on disk — as if the crash
        // landed between compaction's write and its delete — beside a
        // genuinely pending slice of partition 0.
        let mut half = fleet::Collector::new_range(&spec, 6);
        half.absorb(&fleet::run_device(&spec, 6));
        store.write_slice(&half).unwrap();
        let mut pending = fleet::Collector::new_range(&spec, 0);
        pending.absorb(&fleet::run_device(&spec, 0));
        store.write_slice(&pending).unwrap();
        let rec = store.recover(&spec).unwrap();
        assert_eq!(rec.info.slices_discarded, 1);
        assert_eq!(rec.info.slices_loaded, 1);
        assert_eq!(rec.slices.keys().copied().collect::<Vec<_>>(), vec![0]);
        assert!(!dir.join("slice-6.json").exists(), "finished the delete");
        assert!(dir.join("slice-0.json").exists(), "pending slice kept");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_campaign_journal_is_a_spec_mismatch() {
        let spec = CampaignSpec::heterogeneous(5, 12).with_probes(1);
        let other = CampaignSpec::heterogeneous(6, 12).with_probes(1);
        let dir = tmpdir("mismatch");
        let store = Store::open(&dir).unwrap();
        let (c, _) = fleet::run_partition(&spec, 1, 0, 2);
        store.write_slice(&c).unwrap();
        assert!(matches!(
            store.recover(&other),
            Err(StoreError::SpecMismatch(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_journal_is_a_typed_error_not_a_panic() {
        let spec = CampaignSpec::heterogeneous(5, 12).with_probes(1);
        let dir = tmpdir("corrupt");
        let store = Store::open(&dir).unwrap();
        std::fs::write(dir.join("slice-0.json"), b"{not json").unwrap();
        assert!(matches!(
            store.recover(&spec),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
