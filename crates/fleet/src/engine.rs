//! The campaign engine: a fixed pool of OS worker threads pulling
//! device indices off a shared atomic counter, streaming
//! [`DevicePartial`]s over a *bounded* channel into an in-order
//! collector.
//!
//! Memory is bounded end to end by an explicit backpressure window: a
//! worker may not *start* device `i` until the collector has absorbed
//! device `i − window` (`window = 2·workers + 4`), so the reorder
//! buffer holds at most `window` partials even when per-device
//! runtimes are wildly heterogeneous (lognormal path RTTs,
//! cross-traffic strata). The channel bound additionally keeps
//! finished-but-unmerged partials from piling up when the collector
//! itself lags.
//!
//! The same inner loop powers three entry points that all produce
//! byte-identical JSON:
//!
//! * [`run_campaign`] / [`run_campaign_opts`] — a whole campaign in one
//!   process, optionally writing atomic resume checkpoints.
//! * [`resume_campaign`] — restart a killed campaign from its last
//!   checkpoint and finish it.
//! * [`run_partition`] — run one contiguous `i/k` device slice; slices
//!   merge back together with [`crate::report::merge_partials`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use obs::{Json, ToJson};

use crate::profile::{CampaignProfile, StratumCost};
use crate::report::{CampaignReport, CampaignStateError, Collector};
use crate::shard::{run_device_prof, DevicePartial};
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
    /// High-water mark of the collector's reorder buffer.
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
/// Every `every` absorbed devices the collector's full state
/// ([`Collector::state_json`]) is written to `path` via a
/// write-temp-then-rename, so a kill at any instant leaves either the
/// previous checkpoint or the new one — never a torn file.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Destination file (conventionally `campaign.resume.json`).
    pub path: std::path::PathBuf,
    /// Devices between checkpoint writes (must be ≥ 1).
    pub every: u64,
}

/// A streaming progress hook for [`RunOptions`]: the engine calls `f`
/// with the collector's cumulative state every `every` absorbed devices
/// and once more when the range completes (`done = true`).
///
/// This is how a `--push-to` shard feeds the collector daemon while it
/// runs: each call serializes [`Collector::state_json`] and ships it as
/// a cumulative partial, the final call marked `done` so the daemon
/// knows the shard's slice is complete. The hook runs on the collector
/// thread, between absorptions — it sees a consistent, contiguous
/// prefix of the shard's range every time.
#[derive(Clone)]
pub struct ProgressSink {
    /// Devices between progress calls (must be ≥ 1).
    pub every: u64,
    /// The hook: `(collector-so-far, live-telemetry, done)`.
    pub f: ProgressFn,
}

/// The [`ProgressSink`] callback: `(collector-so-far, live-telemetry,
/// done)`, shared across the collector thread and whoever registered
/// it.
pub type ProgressFn = std::sync::Arc<dyn Fn(&Collector, &Progress, bool) + Send + Sync>;

/// Live engine telemetry handed to every [`ProgressSink`] call —
/// throughput, per-worker progress, the reorder-buffer depth, and the
/// self-profiler's phase split. Unlike the collector state, none of
/// this is deterministic; it rides *next to* the campaign data, never
/// inside it.
#[derive(Debug, Clone, Default)]
pub struct Progress {
    /// Devices absorbed by this run so far.
    pub devices_done: u64,
    /// Devices this run will absorb in total.
    pub devices_total: u64,
    /// Wall-clock time since the run started.
    pub elapsed: std::time::Duration,
    /// Worker threads driving the run.
    pub workers: usize,
    /// Reorder-buffer depth at the time of the call.
    pub queue_depth: usize,
    /// Devices completed per worker thread, spawn order.
    pub per_worker_devices: Vec<u64>,
    /// Self-nanoseconds per engine phase (cross-thread, descending),
    /// empty when the run is unprofiled.
    pub phase_self_ns: Vec<(String, u64)>,
}

impl Progress {
    /// Devices per wall-clock second over the run so far.
    pub fn devices_per_sec(&self) -> f64 {
        self.devices_done as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

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

/// Atomically persist `doc` at `path`: write to a sibling `.tmp` file,
/// fsync, then rename over the destination. A kill — or a power cut,
/// thanks to the fsync — at any instant leaves either the previous
/// file or the new one, never a torn in-between. This is the
/// durability discipline behind resume checkpoints; the collector
/// daemon's ingest journal reuses it verbatim.
pub fn atomic_write_json(path: &std::path::Path, doc: &Json) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(doc.to_string_pretty().as_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)
}

fn write_checkpoint(cp: &CheckpointPolicy, state: &Json) {
    if let Err(e) = atomic_write_json(&cp.path, state) {
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
    let window = (workers as u64) * 2 + 4;
    let next = AtomicU64::new(start_index);
    let absorbed = AtomicU64::new(start_index);
    let stop = AtomicBool::new(false);
    // Small bound: enough to decouple workers from the collector's
    // merge cost, small enough that memory stays O(workers).
    let (tx, rx) = mpsc::sync_channel::<DevicePartial>(workers * 2);
    let start = Instant::now();
    let mut reorder_peak = 0usize;
    let mut probes_run = 0u64;
    let mut halted = false;
    let prof = &opts.profiler;
    // Live progress accounting (one relaxed increment per device) and,
    // when profiling, per-stratum wall-cost accumulators.
    let per_worker: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let stratum_ns: Vec<AtomicU64> = spec.classes.iter().map(|_| AtomicU64::new(0)).collect();
    let stratum_devices: Vec<AtomicU64> = spec.classes.iter().map(|_| AtomicU64::new(0)).collect();
    let progress_meta = |queue_depth: usize, next_expected: u64| Progress {
        devices_done: next_expected - start_index,
        devices_total: end - start_index,
        elapsed: start.elapsed(),
        workers,
        queue_depth,
        per_worker_devices: per_worker
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect(),
        phase_self_ns: if prof.is_enabled() {
            prof.snapshot()
                .flat_self_ns()
                .into_iter()
                .map(|(name, ns)| (name.to_string(), ns))
                .collect()
        } else {
            Vec::new()
        },
    };

    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let absorbed = &absorbed;
            let stop = &stop;
            let prof = prof.clone();
            let per_worker = &per_worker;
            let stratum_ns = &stratum_ns;
            let stratum_devices = &stratum_devices;
            scope.spawn(move || {
                prof.set_thread_label(&format!("worker-{w}"));
                let _root = prof.phase("worker");
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= end {
                        break;
                    }
                    // Backpressure window: stay within `window` devices of
                    // the collector so the reorder buffer is bounded even
                    // when a slow low-index device holds up absorption.
                    if i >= absorbed.load(Ordering::Acquire) + window {
                        let _bp = prof.phase("backpressure");
                        while i >= absorbed.load(Ordering::Acquire) + window {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                    let t0 = if prof.is_enabled() {
                        Some(Instant::now())
                    } else {
                        None
                    };
                    let partial = {
                        let _rd = prof.phase("run_device");
                        run_device_prof(spec, i, &prof)
                    };
                    if let Some(t0) = t0 {
                        stratum_ns[partial.class]
                            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        stratum_devices[partial.class].fetch_add(1, Ordering::Relaxed);
                    }
                    per_worker[w].fetch_add(1, Ordering::Relaxed);
                    let _tx = prof.phase("send");
                    if tx.send(partial).is_err() {
                        break;
                    }
                }
            });
        }
        // The workers hold the only remaining senders: `recv` below
        // errors out when the last one exits.
        drop(tx);

        prof.set_thread_label("collector");
        let collect_root = prof.phase("collect");
        // In-order absorption through a reorder buffer. The merged state
        // would come out the same in any order; the buffer is there so
        // every checkpoint and progress push describes a contiguous
        // device prefix `[start_index, expect)`.
        let mut pending: BTreeMap<u64, DevicePartial> = BTreeMap::new();
        let mut expect = start_index;
        loop {
            let received = {
                let _rw = prof.phase("recv_wait");
                rx.recv()
            };
            let Ok(p) = received else { break };
            let _ab = prof.phase("absorb");
            pending.insert(p.index, p);
            reorder_peak = reorder_peak.max(pending.len());
            while let Some(p) = pending.remove(&expect) {
                collector.absorb(&p);
                probes_run += p.probes_sent;
                expect += 1;
                absorbed.store(expect, Ordering::Release);
                if let Some(cp) = &opts.checkpoint {
                    let done = expect - start_index;
                    if cp.every > 0 && done.is_multiple_of(cp.every) {
                        let _cp = prof.phase("checkpoint");
                        write_checkpoint(cp, &collector.state_json());
                    }
                }
                if let Some(ps) = &opts.progress {
                    let done = expect - start_index;
                    if ps.every > 0 && done.is_multiple_of(ps.every) && expect < end {
                        let _pg = prof.phase("progress");
                        (ps.f)(&collector, &progress_meta(pending.len(), expect), false);
                    }
                }
                if let Some(h) = opts.halt_after_devices {
                    if expect - start_index >= h {
                        halted = true;
                        break;
                    }
                }
            }
            if halted {
                stop.store(true, Ordering::Relaxed);
                break;
            }
        }
        drop(collect_root);
        // Dropping the receiver unblocks any worker parked in `send`;
        // discarded partials past the halt point are recomputed by the
        // resumed run, exactly like after a real kill.
        drop(rx);
        if !halted {
            assert!(
                pending.is_empty(),
                "lost device partials: {:?}",
                pending.keys().collect::<Vec<_>>()
            );
            assert_eq!(expect, end, "absorption stopped early at device {expect}");
        }
    });

    if !halted {
        if let Some(ps) = &opts.progress {
            (ps.f)(&collector, &progress_meta(0, collector.next_index()), true);
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
        probes: probes_run,
        reorder_peak,
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
        // The reorder buffer stayed within the backpressure window.
        assert!(
            stats.reorder_peak <= 4 * 2 + 4,
            "peak {}",
            stats.reorder_peak
        );
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
        let opts = RunOptions {
            halt_after_devices: Some(5),
            ..RunOptions::default()
        };
        let (report, stats) = run_campaign_opts(&spec, 3, &opts);
        assert!(report.is_none());
        assert_eq!(stats.devices, 5);
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

    #[test]
    fn progress_meta_reports_throughput_and_phase_split() {
        use std::sync::Mutex;
        let spec = CampaignSpec::heterogeneous(3, 10).with_probes(1);
        let seen: std::sync::Arc<Mutex<Vec<Progress>>> =
            std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink_seen = seen.clone();
        let opts = RunOptions {
            profiler: obs::Profiler::new(),
            progress: Some(ProgressSink {
                every: 4,
                f: std::sync::Arc::new(move |_c, meta, _done| {
                    sink_seen.lock().unwrap().push(meta.clone());
                }),
            }),
            ..RunOptions::default()
        };
        let (report, _) = run_campaign_opts(&spec, 2, &opts);
        assert!(report.is_some());
        let seen = seen.lock().unwrap();
        assert!(!seen.is_empty());
        let last = seen.last().unwrap();
        assert_eq!(last.devices_done, 10);
        assert_eq!(last.devices_total, 10);
        assert_eq!(last.per_worker_devices.len(), 2);
        assert_eq!(last.per_worker_devices.iter().sum::<u64>(), 10);
        assert!(last.devices_per_sec() > 0.0);
        let phases: Vec<&str> = last.phase_self_ns.iter().map(|(n, _)| n.as_str()).collect();
        assert!(phases.contains(&"des"), "{phases:?}");
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
