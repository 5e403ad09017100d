//! The on-disk ingest journal: the accepted pushes, one file per slice.
//!
//! The store keeps one directory (`--state-dir`) holding one
//! `slice-<start>.json` per device slice the daemon has accepted a push
//! for: `{"final": …, "state": {…}}`, the latest accepted push's
//! `final` flag and its campaign-state document (the
//! `acutemon-fleet-campaign-state` format, which carries its own
//! format, version, seed and spec fingerprint). A newer push for the
//! same slice, its final included, atomically replaces the file;
//! nothing is ever deleted or compacted. The shutdown flush adds a
//! rendered `snapshot.json`, which recovery never reads.
//!
//! Every write goes through [`fleet::atomic_write`] — write `.tmp`,
//! fsync, rename, fsync the directory — and the ingest writes a push's
//! file *before* it changes anything in memory, so an acked push is a
//! durable push and a push whose write failed changed nothing.
//! Recovery ([`crate::Ingest::with_store`]) replays the files in start
//! order through the checks a live push goes through.

use std::path::{Path, PathBuf};

use obs::Json;

/// A failure to persist or recover journal state.
#[derive(Debug)]
pub enum StoreError {
    /// The filesystem failed underneath the journal.
    Io(std::io::Error),
    /// A journal file exists but does not parse, or does not replay as
    /// a new slice of the campaign.
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

/// What recovery replayed from the state directory — surfaced on
/// `/status` and `/healthz` so an operator can tell a recovered daemon
/// from a fresh one.
#[derive(Debug, Clone, Default)]
pub struct RecoveryInfo {
    /// Devices in the replayed final slices.
    pub merged_devices: u64,
    /// Final slices replayed (folded into the merged collector).
    pub absorbed_slices: u64,
    /// Non-final slices replayed (held pending).
    pub slices_loaded: u64,
}

impl RecoveryInfo {
    /// Whether recovery restored any state at all.
    pub fn recovered_anything(&self) -> bool {
        self.absorbed_slices > 0 || self.slices_loaded > 0
    }

    /// The provenance object embedded in `/status`.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object();
        doc.set("merged_devices", self.merged_devices);
        doc.set("absorbed_slices", self.absorbed_slices);
        doc.set("slices_loaded", self.slices_loaded);
        doc
    }
}

/// One journal file: the latest accepted push for the slice its name
/// gives.
pub(crate) struct Entry {
    /// The file, for error messages.
    pub(crate) path: PathBuf,
    /// The slice start its name gives.
    pub(crate) start: u64,
    /// Whether the push was its slice's final.
    pub(crate) done: bool,
    /// The pushed campaign-state document.
    pub(crate) state: Json,
}

/// A handle on one ingest state directory: one `slice-<start>.json`
/// per accepted slice, each the latest accepted push for that slice.
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

    /// Atomically record an accepted push as the latest for the slice
    /// at `start`, replacing the slice's previous file.
    pub fn write_slice(&self, start: u64, done: bool, state: &Json) -> Result<(), StoreError> {
        let mut doc = Json::object();
        doc.set("final", done);
        doc.set("state", state.clone());
        let path = self.dir.join(format!("slice-{start}.json"));
        fleet::atomic_write(&path, doc.to_string_pretty().as_bytes())?;
        Ok(())
    }

    /// Atomically write an arbitrary rendered document (e.g. the final
    /// `snapshot.json` the shutdown flush leaves behind) into the state
    /// directory, through the same [`fleet::atomic_write`] as the
    /// journal files.
    pub fn write_raw(&self, name: &str, body: &str) -> Result<(), StoreError> {
        fleet::atomic_write(&self.dir.join(name), body.as_bytes())?;
        Ok(())
    }

    /// Every journal file, read and sorted by the start its name gives.
    /// Only the file's shape is checked here; what it holds is the
    /// ingest's to check, as for a live push. A `merged.json` (the
    /// retired layout, whose ledger could disagree with its state) is
    /// refused rather than read.
    pub(crate) fn recover(&self) -> Result<Vec<Entry>, StoreError> {
        let retired = self.dir.join("merged.json");
        if retired.exists() {
            return Err(StoreError::Corrupt {
                path: retired,
                message: "a journal in the retired merged.json layout; recovery reads only \
                          slice-<start>.json files, so move this directory aside"
                    .to_string(),
            });
        }
        let mut entries = Vec::new();
        for dir_entry in std::fs::read_dir(&self.dir)? {
            let path = dir_entry?.path();
            let Some(start) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("slice-")?.strip_suffix(".json"))
            else {
                continue;
            };
            let corrupt = |message: String| StoreError::Corrupt {
                path: path.clone(),
                message,
            };
            let start = start
                .parse()
                .map_err(|_| corrupt("the name gives no slice start".to_string()))?;
            let doc = Json::parse(&std::fs::read_to_string(&path)?)
                .map_err(|e| corrupt(format!("not JSON: {e}")))?;
            let Some(Json::Bool(done)) = doc.get("final") else {
                return Err(corrupt("missing boolean `final`".to_string()));
            };
            let state = doc
                .get("state")
                .ok_or_else(|| corrupt("missing `state`".to_string()))?;
            entries.push(Entry {
                done: *done,
                state: state.clone(),
                path,
                start,
            });
        }
        entries.sort_by_key(|e| e.start);
        Ok(entries)
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
    fn journal_round_trips_each_slice_push() {
        let spec = fleet::CampaignSpec::heterogeneous(5, 12).with_probes(1);
        let dir = tmpdir("round-trip");
        let store = Store::open(&dir).unwrap();
        let (c1, _) = fleet::run_partition(&spec, 1, 1, 2);
        let mut c0 = fleet::Collector::new_range(&spec, 0);
        c0.absorb(&fleet::run_device(&spec, 0));
        store.write_slice(6, true, &c1.state_json()).unwrap();
        store.write_slice(0, false, &c0.state_json()).unwrap();
        let entries = store.recover().unwrap();
        let read: Vec<_> = entries.iter().map(|e| (e.start, e.done)).collect();
        assert_eq!(read, vec![(0, false), (6, true)], "start order");
        for (entry, c) in entries.iter().zip([&c0, &c1]) {
            assert_eq!(entry.path, dir.join(format!("slice-{}.json", entry.start)));
            assert_eq!(
                entry.state.to_string_pretty(),
                c.state_json().to_string_pretty(),
                "journal round-trip must be byte-exact"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_campaign_journal_is_a_spec_mismatch() {
        let spec = fleet::CampaignSpec::heterogeneous(5, 12).with_probes(1);
        let other = fleet::CampaignSpec::heterogeneous(6, 12).with_probes(1);
        let dir = tmpdir("mismatch");
        let store = Store::open(&dir).unwrap();
        let (c, _) = fleet::run_partition(&spec, 1, 0, 2);
        store.write_slice(0, false, &c.state_json()).unwrap();
        assert!(matches!(
            crate::Ingest::with_store(other, store),
            Err(StoreError::SpecMismatch(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_journal_is_a_typed_error_not_a_panic() {
        let dir = tmpdir("corrupt");
        let store = Store::open(&dir).unwrap();
        std::fs::write(dir.join("snapshot.json"), b"{not json").unwrap();
        std::fs::write(dir.join("slice-0.json.tmp"), b"{not json").unwrap();
        assert!(store.recover().unwrap().is_empty(), "neither is a slice");
        for (name, body) in [
            ("slice-0.json", "{not json"),
            ("slice-0.json", r#"{"state": {}}"#),
            ("slice-0.json", r#"{"final": true}"#),
            ("slice-x.json", r#"{"final": true, "state": {}}"#),
        ] {
            std::fs::write(dir.join(name), body).unwrap();
            assert!(
                matches!(store.recover(), Err(StoreError::Corrupt { ref path, .. })
                    if path == &dir.join(name)),
                "{name}: {body}"
            );
            std::fs::remove_file(dir.join(name)).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
