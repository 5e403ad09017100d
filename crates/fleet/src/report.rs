//! Campaign reports and the versioned campaign-state format behind
//! resume checkpoints and cross-process partial reports.
//!
//! A [`Collector`] folds devices in any order: an engine worker runs
//! each device straight into its own collector, and
//! [`Collector::absorb`] folds a [`DevicePartial`]. Its full state —
//! per-stratum sketches, population sketches, the merged telemetry
//! snapshot, and the device range it covers — serializes to
//! the versioned `acutemon-fleet-campaign-state` JSON document
//! ([`Collector::state_json`]). That one format serves both halves of
//! the cross-process story:
//!
//! * **Checkpoints** (`campaign.resume.json`): written atomically every
//!   N devices; a killed campaign restores the collector with
//!   [`Collector::from_state_json`] and continues from
//!   [`Collector::next_index`], producing a report byte-identical to an
//!   uninterrupted run.
//! * **Partial reports** (`fleet.partial-i-of-k.json`): a contiguous
//!   device slice run by one process; [`merge_partials`] folds the
//!   slices back together and [`Collector::finish`] yields the same
//!   bytes a single process would have produced.
//!
//! Both rely on every piece of folded state being *exactly* mergeable:
//! sketches with integer internals and integer-nanosecond sums, in the
//! strata and in every telemetry histogram. Absorption order therefore
//! never changes a byte. Every sketch has the one accuracy and every
//! histogram the one set of bounds, and the document's readers refuse
//! any other, so two states of one campaign always merge: a foreign
//! value fails in [`Collector::from_state_json`], never in a merge.

use am_stats::QuantileSketch;
use obs::{Json, Snapshot, ToJson};

use crate::shard::{DevicePartial, FoldTarget};
use crate::spec::CampaignSpec;

/// `format` tag of the campaign-state JSON document (checkpoints and
/// partial reports both carry it).
pub const CAMPAIGN_STATE_FORMAT: &str = "acutemon-fleet-campaign-state";

/// Version of the campaign-state JSON schema;
/// [`Collector::from_state_json`] reads this version only. In version 2
/// each device's telemetry covers its measurement session, because the
/// device's run stops when its tool finishes. Version 1 telemetry ran on
/// to the horizon, so folding it into version-2 state would make a
/// report that neither version writes.
pub const CAMPAIGN_STATE_VERSION: u64 = 2;

/// A failure to restore, validate, or merge serialized campaign state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignStateError(pub String);

impl std::fmt::Display for CampaignStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "campaign state error: {}", self.0)
    }
}

impl std::error::Error for CampaignStateError {}

impl From<obs::SnapshotStateError> for CampaignStateError {
    fn from(e: obs::SnapshotStateError) -> CampaignStateError {
        CampaignStateError(e.0)
    }
}

/// Population statistics for one stratum.
#[derive(Debug, Clone, ToJson)]
pub struct StratumReport {
    /// Stratum name.
    pub name: String,
    /// Sampling weight.
    pub weight: u32,
    /// Devices that landed in this stratum.
    pub devices: u64,
    /// Probes sent across the stratum.
    pub probes_sent: u64,
    /// Probes that completed.
    pub probes_completed: u64,
    /// App-level retries spent.
    pub retries: u64,
    /// User-level RTT sketch.
    pub du: QuantileSketch,
    /// Network-level RTT sketch (WiFi strata only).
    pub dn: QuantileSketch,
    /// Overhead `du − dn` sketch (WiFi strata only).
    pub overhead: QuantileSketch,
}

impl StratumReport {
    fn empty(name: String, weight: u32) -> StratumReport {
        StratumReport {
            name,
            weight,
            devices: 0,
            probes_sent: 0,
            probes_completed: 0,
            retries: 0,
            du: QuantileSketch::new(),
            dn: QuantileSketch::new(),
            overhead: QuantileSketch::new(),
        }
    }
}

/// The merged result of a whole campaign.
#[derive(Debug, Clone, ToJson)]
pub struct CampaignReport {
    /// Campaign seed.
    pub seed: u64,
    /// Devices simulated.
    pub devices: u64,
    /// Probes per device (`K`).
    pub probes_per_device: u32,
    /// Per-stratum population statistics.
    pub strata: Vec<StratumReport>,
    /// Population-wide `du` sketch (all strata merged).
    pub du_all: QuantileSketch,
    /// Population-wide overhead sketch (WiFi strata).
    pub overhead_all: QuantileSketch,
    /// The campaign telemetry: every device's snapshot merged.
    pub obs: obs::Snapshot,
}

/// Streaming collector: folds devices and maintains only
/// mergeable state (sketches, counters, one telemetry [`Snapshot`]
/// every device's counts merge into) — memory is O(strata + metric
/// names), independent of device and probe counts.
pub struct Collector {
    strata: Vec<StratumReport>,
    du_all: QuantileSketch,
    overhead_all: QuantileSketch,
    obs: Snapshot,
    seed: u64,
    devices_seen: u64,
    probes_per_device: u32,
    fingerprint: u64,
    range_start: u64,
}

impl Collector {
    /// An empty collector for `spec`, starting at device index 0.
    pub fn new(spec: &CampaignSpec) -> Collector {
        Collector::new_range(spec, 0)
    }

    /// An empty collector for the device slice of `spec` that begins at
    /// index `start` — the partial-report side of a `--partition i/k`
    /// run. Partials merge back together with [`merge_partials`].
    pub fn new_range(spec: &CampaignSpec, start: u64) -> Collector {
        Collector {
            strata: spec
                .classes
                .iter()
                .map(|c| StratumReport::empty(c.name.to_string(), c.weight))
                .collect(),
            du_all: QuantileSketch::new(),
            overhead_all: QuantileSketch::new(),
            obs: Snapshot::default(),
            seed: spec.seed,
            devices_seen: 0,
            probes_per_device: spec.probes_per_device,
            fingerprint: spec.fingerprint(),
            range_start: start,
        }
    }

    /// An empty collector of the same campaign: this one's seed,
    /// fingerprint, probes per device, range start and strata, with
    /// nothing absorbed. An engine worker folds the devices it runs into
    /// one of these; copying the identity spares it
    /// [`CampaignSpec::fingerprint`].
    pub(crate) fn empty_like(&self) -> Collector {
        Collector {
            strata: self
                .strata
                .iter()
                .map(|s| StratumReport::empty(s.name.clone(), s.weight))
                .collect(),
            du_all: QuantileSketch::new(),
            overhead_all: QuantileSketch::new(),
            obs: Snapshot::default(),
            seed: self.seed,
            devices_seen: 0,
            probes_per_device: self.probes_per_device,
            fingerprint: self.fingerprint,
            range_start: self.range_start,
        }
    }

    /// Absorb one device partial ([`crate::run_device`]): the same state
    /// as the engine's fold of that device straight into a collector.
    /// Every merge is exact integer addition, so absorption order does
    /// not change a byte of the state. [`Collector::next_index`] assumes
    /// a contiguous prefix, so the engine reads it (and checkpoints or
    /// pushes the state) only at a segment end, once every device before
    /// it has been folded.
    pub fn absorb(&mut self, p: &DevicePartial) {
        let s = &mut self.strata[p.class];
        s.devices += 1;
        s.probes_sent += p.probes_sent;
        s.probes_completed += p.probes_completed;
        s.retries += p.retries;
        s.du.merge(&p.du);
        s.dn.merge(&p.dn);
        s.overhead.merge(&p.overhead);
        self.du_all.merge(&p.du);
        self.overhead_all.merge(&p.overhead);
        self.obs.merge(&p.obs);
        self.devices_seen += 1;
    }

    /// Devices absorbed so far.
    pub fn devices_seen(&self) -> u64 {
        self.devices_seen
    }

    /// Probes sent by every device absorbed so far.
    pub(crate) fn probes_sent(&self) -> u64 {
        self.strata.iter().map(|s| s.probes_sent).sum()
    }

    /// The campaign seed this collector was created for.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The [`CampaignSpec::fingerprint`] this collector was created for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// First device index of the range this collector covers.
    pub fn range_start(&self) -> u64 {
        self.range_start
    }

    /// The next device index this collector expects: absorption is
    /// contiguous, so this is `range_start + devices_seen`. A resumed
    /// campaign restarts its workers here.
    pub fn next_index(&self) -> u64 {
        self.range_start + self.devices_seen
    }

    /// Check that serialized state belongs to `spec`: the campaign seed
    /// and the [`CampaignSpec::fingerprint`] recorded at serialization
    /// time must both match.
    pub fn verify_spec(&self, spec: &CampaignSpec) -> Result<(), CampaignStateError> {
        if self.seed != spec.seed {
            return Err(CampaignStateError(format!(
                "state was captured with seed {} but the spec has seed {}",
                self.seed, spec.seed
            )));
        }
        if self.fingerprint != spec.fingerprint() {
            return Err(CampaignStateError(format!(
                "state fingerprint {:016x} does not match spec fingerprint {:016x} \
                 (the campaign definition changed between runs)",
                self.fingerprint,
                spec.fingerprint()
            )));
        }
        Ok(())
    }

    /// Serialize the complete collector state as a versioned JSON
    /// document (the checkpoint / partial-report format; field-by-field
    /// schema in `EXPERIMENTS.md`). [`Collector::from_state_json`] is
    /// the exact inverse: restore, continue (or merge), and the final
    /// report is byte-identical to one produced without the round trip.
    pub fn state_json(&self) -> Json {
        let mut strata = Json::array();
        for s in &self.strata {
            let mut j = Json::object();
            j.set("name", Json::Str(s.name.clone()));
            j.set("weight", Json::Num(s.weight as f64));
            j.set("devices", Json::Num(s.devices as f64));
            j.set("probes_sent", Json::Num(s.probes_sent as f64));
            j.set("probes_completed", Json::Num(s.probes_completed as f64));
            j.set("retries", Json::Num(s.retries as f64));
            j.set("du", s.du.state_json());
            j.set("dn", s.dn.state_json());
            j.set("overhead", s.overhead.state_json());
            strata.push(j);
        }
        let mut out = Json::object();
        out.set("format", Json::Str(CAMPAIGN_STATE_FORMAT.to_string()));
        out.set("version", Json::Num(CAMPAIGN_STATE_VERSION as f64));
        out.set("seed", Json::Str(self.seed.to_string()));
        out.set(
            "spec_fingerprint",
            Json::Str(format!("{:016x}", self.fingerprint)),
        );
        out.set(
            "probes_per_device",
            Json::Num(self.probes_per_device as f64),
        );
        out.set("range_start", Json::Num(self.range_start as f64));
        out.set("devices_seen", Json::Num(self.devices_seen as f64));
        out.set("next_index", Json::Num(self.next_index() as f64));
        out.set("strata", strata);
        out.set("du_all", self.du_all.state_json());
        out.set("overhead_all", self.overhead_all.state_json());
        out.set("obs", self.obs.state_json());
        out
    }

    /// Restore a collector from [`Collector::state_json`] output. The
    /// document is self-contained; call [`Collector::verify_spec`]
    /// afterwards to confirm it belongs to the spec you are about to
    /// resume or merge under.
    pub fn from_state_json(state: &Json) -> Result<Collector, CampaignStateError> {
        let err = |m: &str| CampaignStateError(m.to_string());
        let obj_str = |j: &Json, k: &str| -> Result<String, CampaignStateError> {
            j.get(k)
                .and_then(|v| v.as_str())
                .map(|s| s.to_string())
                .ok_or_else(|| CampaignStateError(format!("missing or non-string field `{k}`")))
        };
        // Every count and index is an integer a JSON number carries
        // exactly: a cast would read 1e300 as `u64::MAX`, and the next
        // merge would overflow.
        let obj_u64 = |j: &Json, k: &str| -> Result<u64, CampaignStateError> {
            j.get(k)
                .ok_or_else(|| CampaignStateError(format!("missing field `{k}`")))?
                .as_exact_int()
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| {
                    CampaignStateError(format!(
                        "field `{k}` is not a non-negative integer (at most 2^53)"
                    ))
                })
        };

        if obj_str(state, "format")? != CAMPAIGN_STATE_FORMAT {
            return Err(err("not a campaign-state document (bad `format`)"));
        }
        let version = obj_u64(state, "version")?;
        if version != CAMPAIGN_STATE_VERSION {
            return Err(CampaignStateError(format!(
                "campaign-state version {version} is not supported (expected \
                 {CAMPAIGN_STATE_VERSION})"
            )));
        }
        let seed: u64 = obj_str(state, "seed")?
            .parse()
            .map_err(|_| err("field `seed` is not a decimal u64"))?;
        let fingerprint = u64::from_str_radix(&obj_str(state, "spec_fingerprint")?, 16)
            .map_err(|_| err("field `spec_fingerprint` is not a hex u64"))?;
        let probes_per_device = obj_u64(state, "probes_per_device")?;
        if probes_per_device > u32::MAX as u64 {
            return Err(err("field `probes_per_device` overflows u32"));
        }
        let range_start = obj_u64(state, "range_start")?;
        let devices_seen = obj_u64(state, "devices_seen")?;

        let strata_json = state
            .get("strata")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| err("missing or non-array field `strata`"))?;
        let mut strata = Vec::with_capacity(strata_json.len());
        for (i, j) in strata_json.iter().enumerate() {
            let field = |k: &str| -> Result<u64, CampaignStateError> {
                obj_u64(j, k).map_err(|e| CampaignStateError(format!("stratum {i}: {}", e.0)))
            };
            let sketch = |k: &str| -> Result<QuantileSketch, CampaignStateError> {
                let s = j.get(k).ok_or_else(|| {
                    CampaignStateError(format!("stratum {i}: missing sketch `{k}`"))
                })?;
                QuantileSketch::from_state_json(s)
                    .map_err(|e| CampaignStateError(format!("stratum {i} sketch `{k}`: {}", e.0)))
            };
            let weight = field("weight")?;
            if weight > u32::MAX as u64 {
                return Err(CampaignStateError(format!(
                    "stratum {i}: weight overflows u32"
                )));
            }
            strata.push(StratumReport {
                name: obj_str(j, "name")
                    .map_err(|e| CampaignStateError(format!("stratum {i}: {}", e.0)))?,
                weight: weight as u32,
                devices: field("devices")?,
                probes_sent: field("probes_sent")?,
                probes_completed: field("probes_completed")?,
                retries: field("retries")?,
                du: sketch("du")?,
                dn: sketch("dn")?,
                overhead: sketch("overhead")?,
            });
        }

        // `devices_seen` places the next device (`next_index`), so it
        // must count exactly the devices the strata hold.
        let in_strata = strata
            .iter()
            .try_fold(0u64, |sum, s| sum.checked_add(s.devices));
        if in_strata != Some(devices_seen) {
            return Err(CampaignStateError(format!(
                "field `devices_seen` is {devices_seen} but the strata hold {} devices",
                in_strata.map_or_else(|| "more than 2^64".to_string(), |n| n.to_string())
            )));
        }
        // `next_index` is where a resume restarts, so it must be the
        // device after the range's prefix (each term is at most 2^53, so
        // the sum cannot overflow).
        let next_index = obj_u64(state, "next_index")?;
        if next_index != range_start + devices_seen {
            return Err(CampaignStateError(format!(
                "field `next_index` is {next_index} but the range starts at device \
                 {range_start} and holds {devices_seen} devices"
            )));
        }

        let top_sketch = |k: &str| -> Result<QuantileSketch, CampaignStateError> {
            let s = state
                .get(k)
                .ok_or_else(|| CampaignStateError(format!("missing sketch `{k}`")))?;
            QuantileSketch::from_state_json(s)
                .map_err(|e| CampaignStateError(format!("sketch `{k}`: {}", e.0)))
        };
        let du_all = top_sketch("du_all")?;
        let overhead_all = top_sketch("overhead_all")?;

        let obs =
            Snapshot::from_state_json(state.get("obs").ok_or_else(|| err("missing field `obs`"))?)?;

        Ok(Collector {
            strata,
            du_all,
            overhead_all,
            obs,
            seed,
            devices_seen,
            probes_per_device: probes_per_device as u32,
            fingerprint,
            range_start,
        })
    }

    /// Check that [`Collector::absorb_state`] would accept `other`
    /// without changing anything: same campaign (seed and fingerprint)
    /// and the same strata by name. Device ranges are the caller's
    /// business — only it knows whether the inputs must tile a
    /// population.
    pub fn check_mergeable(&self, other: &Collector) -> Result<(), CampaignStateError> {
        if other.fingerprint != self.fingerprint || other.seed != self.seed {
            return Err(CampaignStateError(
                "cannot merge partials from different campaign specs".to_string(),
            ));
        }
        if other.strata.len() != self.strata.len() {
            return Err(CampaignStateError(
                "partials disagree on stratum count".to_string(),
            ));
        }
        if let Some((s, o)) = self
            .strata
            .iter()
            .zip(&other.strata)
            .find(|(s, o)| s.name != o.name)
        {
            return Err(CampaignStateError(format!(
                "stratum name mismatch: `{}` vs `{}`",
                s.name, o.name
            )));
        }
        Ok(())
    }

    /// Fold another collector's state into this one, in any order: every
    /// merge is exact, so the result does not depend on which state
    /// arrived first. Everything is checked
    /// ([`Collector::check_mergeable`]) before anything changes, so an
    /// error leaves this collector as it was.
    pub fn absorb_state(&mut self, other: &Collector) -> Result<(), CampaignStateError> {
        self.check_mergeable(other)?;
        for (s, o) in self.strata.iter_mut().zip(&other.strata) {
            s.devices += o.devices;
            s.probes_sent += o.probes_sent;
            s.probes_completed += o.probes_completed;
            s.retries += o.retries;
            s.du.merge(&o.du);
            s.dn.merge(&o.dn);
            s.overhead.merge(&o.overhead);
        }
        self.du_all.merge(&other.du_all);
        self.overhead_all.merge(&other.overhead_all);
        self.obs.merge(&other.obs);
        self.devices_seen += other.devices_seen;
        Ok(())
    }

    /// The report of everything absorbed *so far*, without consuming
    /// the collector — the live-snapshot counterpart of
    /// [`Collector::finish`]. Once a collector has absorbed its whole
    /// campaign, `report()` and `finish()` serialize identically.
    pub fn report(&self) -> CampaignReport {
        CampaignReport {
            seed: self.seed,
            devices: self.devices_seen,
            probes_per_device: self.probes_per_device,
            strata: self.strata.clone(),
            du_all: self.du_all.clone(),
            overhead_all: self.overhead_all.clone(),
            obs: self.obs.clone(),
        }
    }

    /// Finish the campaign and emit the report.
    pub fn finish(self) -> CampaignReport {
        CampaignReport {
            seed: self.seed,
            devices: self.devices_seen,
            probes_per_device: self.probes_per_device,
            strata: self.strata,
            du_all: self.du_all,
            overhead_all: self.overhead_all,
            obs: self.obs,
        }
    }
}

/// A device folds straight into a collector: its stratum's counts and
/// sketches and the population sketches take each value as it is
/// harvested, and its layers export into the collector's snapshot. Each
/// observation lands where [`Collector::absorb`] would have merged it,
/// so the state is the same to the byte.
impl FoldTarget for Collector {
    fn obs(&mut self) -> &mut Snapshot {
        &mut self.obs
    }

    fn device(&mut self, class: usize, probes_sent: u64, retries: u64) {
        let s = &mut self.strata[class];
        s.devices += 1;
        s.probes_sent += probes_sent;
        s.retries += retries;
        self.devices_seen += 1;
    }

    fn du(&mut self, class: usize, du: Option<f64>) {
        let s = &mut self.strata[class];
        s.probes_completed += u64::from(du.is_some());
        s.du.push(du);
        self.du_all.push(du);
    }

    fn dn(&mut self, class: usize, dn: Option<f64>) {
        self.strata[class].dn.push(dn);
    }

    fn overhead(&mut self, class: usize, overhead: Option<f64>) {
        self.strata[class].overhead.push(overhead);
        self.overhead_all.push(overhead);
    }
}

/// Merge partial reports from a `k`-way partitioned campaign back into
/// the single-process [`CampaignReport`].
///
/// Each element is the parsed JSON of one `repro fleet --partition i/k`
/// output. Partials may arrive in any order, but sorted by
/// `range_start` they must tile `0..spec.devices`: the first starts at
/// 0, each starts where the previous one ended, and together they cover
/// the population. They must also carry `spec`'s fingerprint. Anything
/// else is an error, not a silent partial answer.
///
/// ```
/// use fleet::{merge_partials, run_campaign, run_partition, CampaignSpec};
/// use obs::ToJson;
///
/// let spec = CampaignSpec::heterogeneous(3, 9).with_probes(1);
/// let parts: Vec<_> = (0..3)
///     .map(|i| run_partition(&spec, 1, i, 3).0.state_json())
///     .collect();
/// let merged = merge_partials(&spec, &parts).unwrap();
/// let (single, _) = run_campaign(&spec, 1);
/// assert_eq!(
///     merged.to_json().to_string_pretty(),
///     single.to_json().to_string_pretty()
/// );
/// ```
pub fn merge_partials(
    spec: &CampaignSpec,
    partials: &[Json],
) -> Result<CampaignReport, CampaignStateError> {
    if partials.is_empty() {
        return Err(CampaignStateError(
            "no partial reports to merge".to_string(),
        ));
    }
    let mut collectors = Vec::with_capacity(partials.len());
    for (i, p) in partials.iter().enumerate() {
        let c = Collector::from_state_json(p)
            .map_err(|e| CampaignStateError(format!("partial {i}: {}", e.0)))?;
        c.verify_spec(spec)
            .map_err(|e| CampaignStateError(format!("partial {i}: {}", e.0)))?;
        collectors.push(c);
    }
    collectors.sort_by_key(|c| c.range_start());
    let mut end = 0;
    for c in &collectors {
        if c.range_start() != end {
            return Err(CampaignStateError(format!(
                "partial starting at device {} does not continue the tiling at device {end} \
                 (a gap or an overlap)",
                c.range_start()
            )));
        }
        end = c.next_index();
    }
    if end != spec.devices {
        return Err(CampaignStateError(format!(
            "merged partials cover {end} devices but the spec has {}",
            spec.devices
        )));
    }
    let mut merged = Collector::new(spec);
    for c in &collectors {
        merged.absorb_state(c)?;
    }
    Ok(merged.finish())
}

fn fmt_q(s: &QuantileSketch, p: f64) -> String {
    match s.quantile(p) {
        Some(v) => format!("{v:8.2}"),
        None => format!("{:>8}", "—"),
    }
}

impl CampaignReport {
    /// Render the per-stratum population table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Fleet campaign: {} devices × {} probes (seed {})\n",
            self.devices, self.probes_per_device, self.seed
        ));
        out.push_str(&format!(
            "{:<18} {:>7} {:>7} {:>6}  {:>8} {:>8} {:>8}  {:>8} {:>8}  {:>8}\n",
            "stratum",
            "devices",
            "probes",
            "compl%",
            "du p50",
            "du p90",
            "du p99",
            "dn p50",
            "dn p90",
            "ovh p50"
        ));
        for s in &self.strata {
            out.push_str(&format!(
                "{:<18} {:>7} {:>7} {:>5.1}%  {} {} {}  {} {}  {}\n",
                s.name,
                s.devices,
                s.probes_sent,
                100.0 * s.du.completion(),
                fmt_q(&s.du, 0.5),
                fmt_q(&s.du, 0.9),
                fmt_q(&s.du, 0.99),
                fmt_q(&s.dn, 0.5),
                fmt_q(&s.dn, 0.9),
                fmt_q(&s.overhead, 0.5),
            ));
        }
        out.push_str(&format!(
            "{:<18} {:>7} {:>7} {:>5.1}%  {} {} {}\n",
            "population",
            self.devices,
            self.strata.iter().map(|s| s.probes_sent).sum::<u64>(),
            100.0 * self.du_all.completion(),
            fmt_q(&self.du_all, 0.5),
            fmt_q(&self.du_all, 0.9),
            fmt_q(&self.du_all, 0.99),
        ));
        out
    }
}
