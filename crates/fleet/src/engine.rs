//! The campaign engine: a fixed pool of OS worker threads, spawned once
//! per run, that fold the run's devices into [`Collector`] states one
//! *segment* at a time.
//!
//! Every merge commutes, so device order matters only where something
//! reads the collector: a checkpoint, a progress push, or the halt hook.
//! The engine splits its range into segments at those points (multiples
//! of [`CheckpointPolicy::every`] and [`ProgressSink::every`] counted from
//! the range start, the halt point, and the range end) and runs them in
//! order. For each segment the calling thread resets a shared atomic
//! counter to the segment's start and sends every worker the segment's
//! end; each worker draws devices off the counter, folds them into a
//! fresh state of its own and sends back exactly one state, which the
//! calling thread absorbs. Once all W states are in, the collector holds
//! exactly the contiguous prefix `[start, boundary)`, and the reader due
//! there runs on the calling thread while the workers run the next
//! segment. A run with no reader is one segment: each worker hands over
//! once.
//!
//! No device result is held across segments, so memory is W worker
//! states, W device storages (each worker's emptied simulator
//! containers, sized by its largest device so far; see
//! `testbed::DeviceStorage`) and the collector. A device that panics
//! fails the run: its worker sends the panic in place of its state, and
//! the calling thread resumes it.
//!
//! The same loop powers three entry points that all produce
//! byte-identical JSON:
//!
//! * [`run_campaign`] / [`run_campaign_opts`] — a whole campaign in one
//!   process, optionally writing atomic resume checkpoints.
//! * [`resume_campaign`] — restart a killed campaign from its last
//!   checkpoint and finish it.
//! * [`run_partition`] — run one contiguous `i/k` device slice; slices
//!   merge back together with [`crate::report::merge_partials`].

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use obs::{Json, ToJson};
use testbed::DeviceStorage;

use crate::profile::{CampaignProfile, StratumCost};
use crate::report::{CampaignReport, CampaignStateError, Collector};
use crate::shard::fold_device;
use crate::spec::CampaignSpec;

/// Wall-clock throughput of one engine run. Kept out of the campaign
/// JSON: the report is deterministic, the clock is not.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole run.
    pub wall: std::time::Duration,
    /// Devices simulated *by this run* (a resumed run counts only the
    /// devices it absorbed after the checkpoint).
    pub devices: u64,
    /// Probes sent by the devices this run simulated.
    pub probes: u64,
    /// Always 0: the engine absorbs each segment whole before it starts
    /// the next, so no device is ever held out of order.
    pub reorder_peak: usize,
    /// The run's self-profile, present when
    /// [`RunOptions::profiler`] was enabled.
    pub profile: Option<CampaignProfile>,
}

impl RunStats {
    /// Devices per wall-clock second.
    pub fn devices_per_sec(&self) -> f64 {
        self.devices as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Probes per wall-clock second.
    pub fn probes_per_sec(&self) -> f64 {
        self.probes as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Periodic atomic checkpointing for [`run_campaign_opts`] and
/// [`resume_campaign`].
///
/// Each time the first `k·every` devices of the run's range have all
/// been absorbed, the collector's full state
/// ([`Collector::state_json`]) is written to `path` via
/// [`atomic_write`], so a kill or an OS crash at any instant leaves
/// either the previous checkpoint or the new one — never a torn file.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Destination file (conventionally `campaign.resume.json`).
    pub path: std::path::PathBuf,
    /// Devices between checkpoint writes (at least 1; a run given 0
    /// panics).
    pub every: u64,
}

/// A streaming progress hook for [`RunOptions`]: the engine calls `f`
/// with the collector's cumulative state each time the first `k·every`
/// devices of the range have all been absorbed, and once more when the
/// range completes (`done = true`).
///
/// This is how a `--push-to` shard feeds the collector daemon while it
/// runs: each call serializes [`Collector::state_json`] and ships it as
/// a cumulative partial, the final call marked `done` so the daemon
/// knows the shard's slice is complete. The hook runs on the calling
/// thread once every worker's state for the devices before its point
/// has been absorbed — it sees a consistent, contiguous prefix of the
/// shard's range every time — while the workers run the next segment.
/// Each point ends a segment, so a finer `every` costs each worker one
/// more hand-off per call.
#[derive(Clone)]
pub struct ProgressSink {
    /// Devices between progress calls (at least 1; a run given 0
    /// panics).
    pub every: u64,
    /// The hook: `(collector-so-far, done)`.
    pub f: ProgressFn,
}

/// The [`ProgressSink`] callback: `(collector-so-far, done)`, shared
/// between the engine and whoever registered it.
pub type ProgressFn = std::sync::Arc<dyn Fn(&Collector, bool) + Send + Sync>;

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressSink")
            .field("every", &self.every)
            .finish_non_exhaustive()
    }
}

/// Options for [`run_campaign_opts`] and [`resume_campaign`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Write periodic resume checkpoints.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Test hook simulating a kill: stop cleanly after absorbing this
    /// many devices *in this run* and return `None` instead of a
    /// report. Checkpoints due at or before the halt point are written
    /// first, exactly as they would be before a real crash.
    pub halt_after_devices: Option<u64>,
    /// Streaming progress hook (cumulative pushes to a collector
    /// daemon). Not called after a halt: a halted run's tail is
    /// recomputed on resume, exactly like after a real kill.
    pub progress: Option<ProgressSink>,
    /// Self-profiler. Enabled, the run attributes wall-clock and
    /// allocation cost per engine phase and returns a
    /// [`CampaignProfile`] in [`RunStats::profile`]; the default
    /// disabled profiler costs one branch per guard and keeps the
    /// campaign JSON byte-identical to an uninstrumented build.
    pub profiler: obs::Profiler,
}

/// Atomically persist `bytes` at `path`: write to a sibling `.tmp`
/// file, fsync it, rename it over the destination, then fsync the
/// parent directory so the rename itself is durable. A kill — or an OS
/// crash, thanks to the two fsyncs — at any instant leaves either the
/// previous file or the new one, never a torn in-between. This is the
/// durability discipline behind resume checkpoints, the collector
/// daemon's ingest journal and its shutdown `snapshot.json`.
pub fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => std::path::Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

fn write_checkpoint(cp: &CheckpointPolicy, state: &Json) {
    if let Err(e) = atomic_write(&cp.path, state.to_string_pretty().as_bytes()) {
        panic!("failed to write checkpoint {}: {e}", cp.path.display());
    }
}

/// The shared inner loop: drive `collector` from its
/// [`Collector::next_index`] up to device `end` (exclusive) across
/// `workers` threads. Returns the collector, the run's stats, and
/// whether the run halted early via `opts.halt_after_devices`.
fn run_range(
    spec: &CampaignSpec,
    workers: usize,
    mut collector: Collector,
    end: u64,
    opts: &RunOptions,
) -> (Collector, RunStats, bool) {
    let workers = workers.max(1);
    let start_index = collector.next_index();
    let probes_before = collector.probes_sent();
    let cp_every = opts.checkpoint.as_ref().map(|cp| cp.every);
    let ps_every = opts.progress.as_ref().map(|ps| ps.every);
    assert!(
        cp_every != Some(0),
        "CheckpointPolicy::every must be at least 1"
    );
    assert!(
        ps_every != Some(0),
        "ProgressSink::every must be at least 1"
    );
    // A halt hook of 0 still absorbs one device, as it always has.
    let halt_at = opts.halt_after_devices.map(|h| start_index + h.max(1));
    // The first point after `at` where something reads the collector:
    // the end of the segment that holds device `at`.
    let segment_end = |at: u64| -> u64 {
        let done = at - start_index;
        let grid = [cp_every, ps_every]
            .into_iter()
            .flatten()
            .map(|every| start_index + (done / every + 1) * every);
        grid.chain(halt_at.filter(|&h| h > at)).fold(end, u64::min)
    };
    let prof = &opts.profiler;
    // The readers due once the collector holds `[start_index, at)`: the
    // checkpoint, then the progress call (the range end gets its `done`
    // call after the run instead).
    let read_at = |collector: &Collector, at: u64| {
        let done = at - start_index;
        if let Some(cp) = opts.checkpoint.as_ref() {
            if done.is_multiple_of(cp.every) {
                let _cp = prof.phase("checkpoint");
                write_checkpoint(cp, &collector.state_json());
            }
        }
        if let Some(ps) = opts.progress.as_ref() {
            if done.is_multiple_of(ps.every) && at < end {
                let _pg = prof.phase("progress");
                (ps.f)(collector, false);
            }
        }
    };
    let next = AtomicU64::new(start_index);
    // Each worker's states start from this one, so none re-hashes the
    // spec.
    let template = collector.empty_like();
    let start = Instant::now();
    let mut halted = false;
    // When profiling, per-stratum wall-cost accumulators.
    let stratum_ns: Vec<AtomicU64> = spec.classes.iter().map(|_| AtomicU64::new(0)).collect();
    let stratum_devices: Vec<AtomicU64> = spec.classes.iter().map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|scope| {
        // One state per worker per segment, or the panic that cut its
        // segment short.
        let (state_tx, state_rx) = mpsc::channel::<std::thread::Result<Collector>>();
        // One segment end per worker per segment. Dropping these, as
        // the scope ends or unwinds, ends the workers' loops.
        let starts: Vec<mpsc::Sender<u64>> = (0..workers)
            .map(|w| {
                let (start_tx, start_rx) = mpsc::channel::<u64>();
                let state_tx = state_tx.clone();
                let (next, template) = (&next, &template);
                let (stratum_ns, stratum_devices) = (&stratum_ns, &stratum_devices);
                let prof = prof.clone();
                scope.spawn(move || {
                    prof.set_thread_label(&format!("worker-{w}"));
                    let _root = prof.phase("worker");
                    // Each device builds on the containers the
                    // worker's earlier devices grew.
                    let mut storage = DeviceStorage::default();
                    loop {
                        let received = {
                            let _idle = prof.phase("idle");
                            start_rx.recv()
                        };
                        let Ok(seg_end) = received else { break };
                        let folded = panic::catch_unwind(AssertUnwindSafe(|| {
                            let mut state = template.empty_like();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= seg_end {
                                    return state;
                                }
                                let t0 = prof.is_enabled().then(Instant::now);
                                let class = {
                                    let _rd = prof.phase("run_device");
                                    fold_device(spec, i, &prof, &mut state, &mut storage)
                                };
                                if let Some(t0) = t0 {
                                    stratum_ns[class].fetch_add(
                                        t0.elapsed().as_nanos() as u64,
                                        Ordering::Relaxed,
                                    );
                                    stratum_devices[class].fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }));
                        // After a panic the worker waits like the others:
                        // the calling thread's unwind ends every loop.
                        if state_tx.send(folded).is_err() {
                            break;
                        }
                    }
                });
                start_tx
            })
            .collect();
        drop(state_tx);

        prof.set_thread_label("collector");
        let _root = prof.phase("collect");
        // The point whose readers run while the workers fill the
        // segment after it.
        let mut due = None;
        let mut seg_start = start_index;
        while seg_start < end {
            let seg_end = segment_end(seg_start);
            // Each worker's last draw overshot the previous segment.
            next.store(seg_start, Ordering::Relaxed);
            for tx in &starts {
                tx.send(seg_end)
                    .expect("a worker waits for the next segment");
            }
            if let Some(at) = due.take() {
                read_at(&collector, at);
            }
            for _ in 0..workers {
                let folded = {
                    let _wait = prof.phase("wait");
                    state_rx
                        .recv()
                        .expect("each worker sends one state per segment")
                };
                let state = folded.unwrap_or_else(|panic| panic::resume_unwind(panic));
                let _ab = prof.phase("absorb");
                collector
                    .absorb_state(&state)
                    .expect("a worker's state belongs to the run's campaign");
            }
            // Devices past a halt are never run: the resumed run
            // recomputes them, exactly like after a real kill.
            halted = halt_at == Some(seg_end);
            if halted || seg_end == end {
                read_at(&collector, seg_end);
                break;
            }
            due = Some(seg_end);
            seg_start = seg_end;
        }
    });

    if !halted {
        if let Some(ps) = &opts.progress {
            (ps.f)(&collector, true);
        }
    }

    let wall = start.elapsed();
    let profile = if prof.is_enabled() {
        Some(CampaignProfile {
            snapshot: prof.snapshot(),
            wall_ns: wall.as_nanos() as u64,
            threads: workers + 1,
            strata: spec
                .classes
                .iter()
                .enumerate()
                .map(|(ci, c)| StratumCost {
                    name: c.name.to_string(),
                    devices: stratum_devices[ci].load(Ordering::Relaxed),
                    wall_ns: stratum_ns[ci].load(Ordering::Relaxed),
                })
                .collect(),
        })
    } else {
        None
    };
    let stats = RunStats {
        workers,
        wall,
        devices: collector.next_index() - start_index,
        probes: collector.probes_sent() - probes_before,
        reorder_peak: 0,
        profile,
    };
    (collector, stats, halted)
}

/// Run `spec` across `workers` OS threads. Returns the merged report
/// (byte-identical for any `workers`) and the wall-clock stats.
pub fn run_campaign(spec: &CampaignSpec, workers: usize) -> (CampaignReport, RunStats) {
    let (report, stats) = run_campaign_opts(spec, workers, &RunOptions::default());
    (
        report.expect("run without a halt hook always completes"),
        stats,
    )
}

/// [`run_campaign`] with checkpointing and halt options. Returns
/// `None` for the report when the run halted early (the checkpoint
/// file, if any, carries the state forward).
pub fn run_campaign_opts(
    spec: &CampaignSpec,
    workers: usize,
    opts: &RunOptions,
) -> (Option<CampaignReport>, RunStats) {
    let collector = Collector::new(spec);
    let (collector, stats, halted) = run_range(spec, workers, collector, spec.devices, opts);
    let report = if halted {
        None
    } else {
        Some(collector.finish())
    };
    (report, stats)
}

/// Resume a killed campaign from serialized checkpoint state and drive
/// it to completion (or to the next halt, if `opts` asks for one).
///
/// The state must belong to `spec` (seed + fingerprint are verified)
/// and must be a whole-campaign checkpoint (`range_start == 0`), not a
/// partition partial. The finished report is byte-identical to an
/// uninterrupted single-process run:
///
/// ```
/// use fleet::{resume_campaign, run_campaign, run_partition, CampaignSpec, RunOptions};
/// use obs::ToJson;
///
/// let spec = CampaignSpec::heterogeneous(7, 8).with_probes(1);
/// // State as of device 4 — what a checkpoint would hold at a kill…
/// let (half, _) = run_partition(&spec, 2, 0, 2);
/// // …restored and driven to completion:
/// let (resumed, _) =
///     resume_campaign(&spec, 2, &half.state_json(), &RunOptions::default()).unwrap();
/// let (full, _) = run_campaign(&spec, 1);
/// assert_eq!(
///     resumed.unwrap().to_json().to_string_pretty(),
///     full.to_json().to_string_pretty()
/// );
/// ```
pub fn resume_campaign(
    spec: &CampaignSpec,
    workers: usize,
    state: &Json,
    opts: &RunOptions,
) -> Result<(Option<CampaignReport>, RunStats), CampaignStateError> {
    let collector = Collector::from_state_json(state)?;
    collector.verify_spec(spec)?;
    if collector.range_start() != 0 {
        return Err(CampaignStateError(format!(
            "cannot resume from a partition partial (range starts at device {}, not 0)",
            collector.range_start()
        )));
    }
    if collector.next_index() > spec.devices {
        return Err(CampaignStateError(format!(
            "checkpoint has absorbed {} devices but the spec only has {}",
            collector.next_index(),
            spec.devices
        )));
    }
    let (collector, stats, halted) = run_range(spec, workers, collector, spec.devices, opts);
    let report = if halted {
        None
    } else {
        Some(collector.finish())
    };
    Ok((report, stats))
}

/// The contiguous device range `[start, end)` of partition `i` of `k`.
pub fn partition_range(devices: u64, i: u64, k: u64) -> (u64, u64) {
    assert!(k > 0 && i < k, "partition {i}/{k} is out of range");
    (devices * i / k, devices * (i + 1) / k)
}

/// Run partition `i` of `k`: the contiguous device slice
/// [`partition_range`]`(spec.devices, i, k)`, in one process. The
/// returned [`Collector`] serializes to a mergeable partial report via
/// [`Collector::state_json`]; `k` such partials fold back into the
/// single-process report with [`crate::report::merge_partials`].
pub fn run_partition(spec: &CampaignSpec, workers: usize, i: u64, k: u64) -> (Collector, RunStats) {
    run_partition_opts(spec, workers, i, k, &RunOptions::default())
}

/// [`run_partition`] with [`RunOptions`] — in particular a
/// [`ProgressSink`] that streams the partition's cumulative state to a
/// collector daemon while it runs. `halt_after_devices` is ignored for
/// partitions (a partition is already a slice; kill-resume composes at
/// the campaign level).
pub fn run_partition_opts(
    spec: &CampaignSpec,
    workers: usize,
    i: u64,
    k: u64,
    opts: &RunOptions,
) -> (Collector, RunStats) {
    let (start, end) = partition_range(spec.devices, i, k);
    let collector = Collector::new_range(spec, start);
    let opts = RunOptions {
        halt_after_devices: None,
        ..opts.clone()
    };
    let (collector, stats, halted) = run_range(spec, workers, collector, end, &opts);
    assert!(!halted);
    (collector, stats)
}

/// Detected hardware parallelism (`1` when unknown). The scaling table
/// uses this to annotate speedups that *cannot* exceed ~1.0× because
/// the host has fewer cores than the worker count under test.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One row of the worker-scaling table.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Worker threads.
    pub workers: usize,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Devices per second.
    pub devices_per_sec: f64,
    /// Probes per second.
    pub probes_per_sec: f64,
    /// Speedup over the first (slowest-parallelism) row.
    pub speedup: f64,
    /// Whether this run's JSON matched the first row's byte for byte.
    pub json_identical: bool,
}

/// Run `spec` once per entry of `worker_counts` and tabulate scaling.
/// Also verifies the merged JSON is byte-identical across runs.
pub fn scaling_table(spec: &CampaignSpec, worker_counts: &[usize]) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    let mut baseline: Option<(f64, String)> = None;
    for &w in worker_counts {
        let (report, stats) = run_campaign(spec, w);
        let json = report.to_json().to_string_pretty();
        let (base_wall, base_json) =
            baseline.get_or_insert((stats.wall.as_secs_f64(), json.clone()));
        rows.push(ScalingRow {
            workers: w,
            wall_secs: stats.wall.as_secs_f64(),
            devices_per_sec: stats.devices_per_sec(),
            probes_per_sec: stats.probes_per_sec(),
            speedup: *base_wall / stats.wall.as_secs_f64().max(1e-9),
            json_identical: json == *base_json,
        });
    }
    rows
}

/// Render the scaling table. When the host exposes fewer cores than
/// the widest row, speedups are expected to flatline near 1.0× — the
/// table says so instead of letting a single-core CI runner look like
/// a scaling regression.
pub fn render_scaling(rows: &[ScalingRow]) -> String {
    let cores = available_parallelism();
    let mut out = String::new();
    out.push_str(&format!(
        "{:>7} {:>9} {:>12} {:>12} {:>8} {:>10}\n",
        "workers", "wall s", "devices/s", "probes/s", "speedup", "json"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>7} {:>9.2} {:>12.1} {:>12.1} {:>7.2}x {:>10}{}\n",
            r.workers,
            r.wall_secs,
            r.devices_per_sec,
            r.probes_per_sec,
            r.speedup,
            if r.json_identical {
                "identical"
            } else {
                "DIVERGED"
            },
            if r.workers > cores { "  (> cores)" } else { "" },
        ));
    }
    if let Some(widest) = rows.iter().map(|r| r.workers).max() {
        if widest > cores {
            out.push_str(&format!(
                "note: host exposes {cores} core(s); speedup beyond {cores} worker(s) \
                 is not expected here\n"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_merges_every_device() {
        let spec = CampaignSpec::heterogeneous(11, 24).with_probes(2);
        let (report, stats) = run_campaign(&spec, 4);
        assert_eq!(report.devices, 24);
        assert_eq!(stats.devices, 24);
        assert_eq!(report.strata.iter().map(|s| s.devices).sum::<u64>(), 24);
        assert!(!report.du_all.is_empty());
        assert!(stats.probes > 0);
        // With no checkpoint, progress sink or halt the range is one
        // segment: each worker's state folds on arrival and no device
        // is held.
        assert_eq!(stats.reorder_peak, 0);
    }

    #[test]
    fn report_is_byte_identical_across_worker_counts() {
        let spec = CampaignSpec::heterogeneous(5, 20).with_probes(2);
        let (a, _) = run_campaign(&spec, 1);
        let (b, _) = run_campaign(&spec, 4);
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty()
        );
    }

    #[test]
    fn halted_run_reports_no_campaign() {
        let spec = CampaignSpec::heterogeneous(13, 16).with_probes(1);
        // A halt hook of 0 still absorbs one device.
        for (halt, absorbed) in [(5, 5), (0, 1)] {
            let opts = RunOptions {
                halt_after_devices: Some(halt),
                ..RunOptions::default()
            };
            let (report, stats) = run_campaign_opts(&spec, 3, &opts);
            assert!(report.is_none());
            assert_eq!(stats.devices, absorbed);
        }
    }

    #[test]
    fn profiled_run_attributes_cost_and_keeps_json_identical() {
        let spec = CampaignSpec::heterogeneous(7, 12).with_probes(1);
        let (plain, _) = run_campaign(&spec, 2);
        let opts = RunOptions {
            profiler: obs::Profiler::new(),
            ..RunOptions::default()
        };
        let (profiled, stats) = run_campaign_opts(&spec, 2, &opts);
        // Determinism contract: profiling must not leak into the report.
        assert_eq!(
            plain.to_json().to_string_pretty(),
            profiled.unwrap().to_json().to_string_pretty()
        );
        let profile = stats.profile.expect("profiler enabled");
        assert_eq!(profile.threads, 3);
        let folded = profile.folded();
        for phase in [
            "worker;run_device;des",
            "worker;run_device;setup",
            "collect",
        ] {
            assert!(folded.contains(phase), "missing {phase} in:\n{folded}");
        }
        // Per-stratum costs cover every simulated device exactly once.
        assert_eq!(profile.strata.iter().map(|s| s.devices).sum::<u64>(), 12);
        assert!(profile.attributed_fraction() > 0.0);
        // An unprofiled run carries no profile.
        let (_, stats) = run_campaign(&spec, 2);
        assert!(stats.profile.is_none());
    }

    /// Calls of phase `name` on the threads whose label starts with
    /// `label`.
    fn calls(profile: &CampaignProfile, label: &str, name: &str) -> u64 {
        profile
            .snapshot
            .threads
            .iter()
            .filter(|t| t.label.starts_with(label))
            .flat_map(|t| &t.nodes)
            .filter(|n| n.name == name)
            .map(|n| n.calls)
            .sum()
    }

    /// `(root, child)` phase pairs on the threads whose label starts
    /// with `label`.
    fn tree(
        profile: &CampaignProfile,
        label: &str,
    ) -> std::collections::BTreeSet<(&'static str, &'static str)> {
        let mut pairs = std::collections::BTreeSet::new();
        for t in profile
            .snapshot
            .threads
            .iter()
            .filter(|t| t.label.starts_with(label))
        {
            for n in &t.nodes {
                let Some(root) = n.parent.map(|p| &t.nodes[p]) else {
                    continue;
                };
                if root.parent.is_none() {
                    pairs.insert((root.name, n.name));
                }
            }
        }
        pairs
    }

    #[test]
    fn each_worker_hands_over_once_per_segment() {
        let spec = CampaignSpec::heterogeneous(17, 24).with_probes(1);
        let observed = ProgressSink {
            every: 6,
            f: std::sync::Arc::new(|_, _| {}),
        };
        // Unobserved, the range is one segment; a progress call every 6
        // devices cuts it into four.
        for (progress, segments) in [(None, 1), (Some(observed), 4)] {
            for workers in [1, 2, 4] {
                let opts = RunOptions {
                    profiler: obs::Profiler::new(),
                    progress: progress.clone(),
                    ..RunOptions::default()
                };
                let (report, stats) = run_campaign_opts(&spec, workers, &opts);
                assert_eq!(report.expect("completes").devices, 24);
                let profile = stats.profile.expect("profiled");
                let case = format!("{workers} workers, {segments} segments");
                let absorbs = calls(&profile, "collector", "absorb");
                assert_eq!(absorbs, (workers * segments) as u64, "{case}");
                // Each worker waits once per segment, and once more to
                // learn the run is over.
                let idles = calls(&profile, "worker", "idle");
                assert_eq!(idles, (workers * (segments + 1)) as u64, "{case}");
                assert_eq!(calls(&profile, "collector", "wait"), absorbs, "{case}");
                // The phase tree: nothing else under either root.
                assert_eq!(
                    tree(&profile, "worker"),
                    [("worker", "idle"), ("worker", "run_device")].into(),
                    "{case}"
                );
                let mut collect = vec![("collect", "absorb"), ("collect", "wait")];
                if segments > 1 {
                    collect.push(("collect", "progress"));
                }
                assert_eq!(
                    tree(&profile, "collector"),
                    collect.into_iter().collect(),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn a_panicking_device_fails_the_run_instead_of_hanging() {
        // 70,000 probes overflow the port encoding: every device panics.
        let spec = CampaignSpec::heterogeneous(1, 8).with_probes(70_000);
        let every_device = ProgressSink {
            every: 1,
            f: std::sync::Arc::new(|_, _| {}),
        };
        for progress in [None, Some(every_device)] {
            for workers in [1, 2, 4] {
                let opts = RunOptions {
                    progress: progress.clone(),
                    ..RunOptions::default()
                };
                let spec = spec.clone();
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_campaign_opts(&spec, workers, &opts)
                    }));
                    let _ = tx.send(run.is_err());
                });
                let observed = progress.is_some();
                let panicked = rx
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .unwrap_or_else(|_| {
                        panic!("{workers} workers, observed {observed}: the run hangs")
                    });
                assert!(panicked, "{workers} workers, observed {observed}: no panic");
            }
        }
    }

    #[test]
    #[should_panic(expected = "CheckpointPolicy::every must be at least 1")]
    fn a_checkpoint_every_of_zero_is_refused() {
        let opts = RunOptions {
            checkpoint: Some(CheckpointPolicy {
                path: std::env::temp_dir().join("fleet-every-zero-never-written.json"),
                every: 0,
            }),
            ..RunOptions::default()
        };
        run_campaign_opts(&CampaignSpec::heterogeneous(3, 4).with_probes(1), 2, &opts);
    }

    #[test]
    #[should_panic(expected = "ProgressSink::every must be at least 1")]
    fn a_progress_every_of_zero_is_refused() {
        let opts = RunOptions {
            progress: Some(ProgressSink {
                every: 0,
                f: std::sync::Arc::new(|_, _| {}),
            }),
            ..RunOptions::default()
        };
        run_campaign_opts(&CampaignSpec::heterogeneous(3, 4).with_probes(1), 2, &opts);
    }

    #[test]
    fn atomic_write_replaces_the_file_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("fleet-atomic-write-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        atomic_write(&path, b"old, and longer than the new bytes").unwrap();
        atomic_write(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["state.json"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partition_ranges_tile_the_campaign() {
        for k in 1..=7u64 {
            let mut next = 0u64;
            for i in 0..k {
                let (s, e) = partition_range(100, i, k);
                assert_eq!(s, next);
                assert!(e >= s);
                next = e;
            }
            assert_eq!(next, 100);
        }
    }
}
