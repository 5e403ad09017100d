//! The campaign engine: a fixed pool of OS worker threads pulling
//! device indices off a shared atomic counter, each folding the devices
//! it runs into a [`Collector`] of its own, and handing those states
//! over a *bounded* channel to one collector thread.
//!
//! Every merge commutes, so device order matters only where something
//! reads the collector: a checkpoint, a progress push, or the halt hook.
//! The engine splits its range into *segments* at those points
//! (multiples of [`CheckpointPolicy::every`] and [`ProgressSink::every`]
//! counted from the range start, the halt point, and the range end). A
//! worker folds its devices into a state tagged with the end of their
//! segment, and hands it over when it claims a device of a later segment
//! (before any wait) or leaves its loop. The collector absorbs the head
//! (oldest open) segment's states on arrival and merges a later
//! segment's into one held state until that segment becomes the head.
//! When the head segment's device count is complete, its checkpoint,
//! progress call or halt fires, so every reader sees exactly the
//! contiguous prefix `[start, boundary)`. A run with no reader is one
//! segment: each worker hands over once, and no worker waits.
//!
//! Memory is bounded by an explicit backpressure window: a worker may
//! not *start* device `i` until `i` is within `window = 2·workers + 4`
//! devices of the head segment's end, so the held states cover at most
//! `window` devices even when per-device runtimes are wildly
//! heterogeneous (lognormal path RTTs, cross-traffic strata). The
//! channel bound additionally keeps finished-but-unmerged states from
//! piling up when the collector itself lags.
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
    /// High-water mark of the devices held past the head segment: run
    /// and handed over, but not yet absorbed because an earlier segment
    /// is still open. Always 0 for a run with no checkpoint, progress
    /// sink or halt hook.
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
    /// Devices between checkpoint writes (must be ≥ 1).
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
/// knows the shard's slice is complete. The hook runs on the collector
/// thread once every worker's state for the devices before its point
/// has been absorbed — it sees a consistent, contiguous prefix of the
/// shard's range every time. Each point ends a segment, so a finer
/// `every` costs the workers one more hand-off each per call.
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
/// throughput, per-worker progress, the devices held past the head
/// segment, and the self-profiler's phase split. Unlike the collector
/// state, none of this is deterministic; it rides *next to* the
/// campaign data, never inside it.
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
    /// Devices held past the head segment at the time of the call:
    /// run and handed over, waiting for an earlier segment to complete.
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
    let window = (workers as u64) * 2 + 4;
    let cp_every = opts.checkpoint.as_ref().map(|cp| cp.every);
    let ps_every = opts.progress.as_ref().map(|ps| ps.every);
    // A halt hook of 0 still absorbs one device, as it always has.
    let halt_at = opts.halt_after_devices.map(|h| start_index + h.max(1));
    // The first point after `at` where something reads the collector:
    // the end of the segment that holds device `at`.
    let segment_end = move |at: u64| -> u64 {
        let done = at - start_index;
        let grid = [cp_every, ps_every]
            .into_iter()
            .flatten()
            .filter(|&every| every > 0)
            .map(|every| start_index + (done / every + 1) * every);
        grid.chain(halt_at.filter(|&h| h > at)).fold(end, u64::min)
    };
    let next = AtomicU64::new(start_index);
    let head_end = AtomicU64::new(segment_end(start_index));
    let stop = AtomicBool::new(false);
    // Each worker's states start from this one, so none re-hashes the
    // spec.
    let template = collector.empty_like();
    // Small bound: enough to decouple workers from the collector's
    // merge cost, small enough that memory stays O(workers).
    let (tx, rx) = mpsc::sync_channel::<(u64, Collector)>(workers * 2);
    let start = Instant::now();
    let mut reorder_peak = 0usize;
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
            let head_end = &head_end;
            let stop = &stop;
            let template = &template;
            let prof = prof.clone();
            let per_worker = &per_worker;
            let stratum_ns = &stratum_ns;
            let stratum_devices = &stratum_devices;
            scope.spawn(move || {
                prof.set_thread_label(&format!("worker-{w}"));
                let _root = prof.phase("worker");
                // The devices this worker ran in one segment, folded,
                // tagged with that segment's end.
                let mut held: Option<(u64, Collector)> = None;
                let hand_off = |held: &mut Option<(u64, Collector)>| -> bool {
                    let Some(state) = held.take() else {
                        return true;
                    };
                    let _tx = prof.phase("send");
                    tx.send(state).is_ok()
                };
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= end {
                        break;
                    }
                    let seg = segment_end(i);
                    // A device of a later segment: hand the earlier one
                    // over before any wait below, so a segment never
                    // waits on a worker that is itself waiting.
                    if held.as_ref().is_some_and(|(tag, _)| *tag != seg) && !hand_off(&mut held) {
                        break;
                    }
                    // Backpressure window: stay within `window` devices of
                    // the head segment's end so the held states stay
                    // bounded even when a slow device holds that segment
                    // open. A run with no reader is one segment ending
                    // at `end`, so this never waits.
                    if i >= head_end.load(Ordering::Acquire) + window {
                        let _bp = prof.phase("backpressure");
                        while i >= head_end.load(Ordering::Acquire) + window {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                    // The device runs straight into this segment's state.
                    let state = &mut held.get_or_insert_with(|| (seg, template.empty_like())).1;
                    let t0 = if prof.is_enabled() {
                        Some(Instant::now())
                    } else {
                        None
                    };
                    let class = {
                        let _rd = prof.phase("run_device");
                        fold_device(spec, i, &prof, state)
                    };
                    if let Some(t0) = t0 {
                        stratum_ns[class]
                            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        stratum_devices[class].fetch_add(1, Ordering::Relaxed);
                    }
                    per_worker[w].fetch_add(1, Ordering::Relaxed);
                }
                hand_off(&mut held);
            });
        }
        // The workers hold the only remaining senders: `recv` below
        // errors out when the last one exits.
        drop(tx);

        prof.set_thread_label("collector");
        let collect_root = prof.phase("collect");
        // States of the head segment `[.., seg_end)` fold on arrival; a
        // later segment's merge into one state in `pending` until that
        // segment becomes the head. A segment is complete when
        // `seg_left` reaches 0, and only then does the collector hold
        // exactly `[start_index, seg_end)` for the checkpoint, progress
        // call or halt due there.
        let mut pending: BTreeMap<u64, Collector> = BTreeMap::new();
        let mut pending_devices = 0usize;
        let mut seg_end = head_end.load(Ordering::Relaxed);
        let mut seg_left = seg_end - start_index;
        let merge = |into: &mut Collector, state: &Collector| {
            into.absorb_state(state)
                .expect("a worker's state belongs to the run's campaign");
        };
        loop {
            let received = {
                let _rw = prof.phase("recv_wait");
                rx.recv()
            };
            let Ok((tag, state)) = received else { break };
            let _ab = prof.phase("absorb");
            if tag != seg_end {
                pending_devices += state.devices_seen() as usize;
                reorder_peak = reorder_peak.max(pending_devices);
                if let Some(later) = pending.get_mut(&tag) {
                    merge(later, &state);
                } else {
                    pending.insert(tag, state);
                }
                continue;
            }
            merge(&mut collector, &state);
            seg_left -= state.devices_seen();
            while seg_left == 0 {
                let done = seg_end - start_index;
                if let Some(cp) = &opts.checkpoint {
                    if cp.every > 0 && done.is_multiple_of(cp.every) {
                        let _cp = prof.phase("checkpoint");
                        write_checkpoint(cp, &collector.state_json());
                    }
                }
                if let Some(ps) = &opts.progress {
                    if ps.every > 0 && done.is_multiple_of(ps.every) && seg_end < end {
                        let _pg = prof.phase("progress");
                        (ps.f)(&collector, &progress_meta(pending_devices, seg_end), false);
                    }
                }
                halted = halt_at == Some(seg_end);
                if halted || seg_end == end {
                    break;
                }
                let next_end = segment_end(seg_end);
                seg_left = next_end - seg_end;
                seg_end = next_end;
                head_end.store(seg_end, Ordering::Release);
                if let Some(state) = pending.remove(&seg_end) {
                    pending_devices -= state.devices_seen() as usize;
                    merge(&mut collector, &state);
                    seg_left -= state.devices_seen();
                }
            }
            if halted {
                stop.store(true, Ordering::Relaxed);
                break;
            }
        }
        drop(collect_root);
        // Dropping the receiver unblocks any worker parked in `send`;
        // discarded devices past the halt point are recomputed by the
        // resumed run, exactly like after a real kill.
        drop(rx);
        if !halted {
            assert!(
                pending.is_empty(),
                "lost segment states: {:?}",
                pending.keys().collect::<Vec<_>>()
            );
            assert_eq!(
                collector.next_index(),
                end,
                "absorption stopped early at device {}",
                collector.next_index()
            );
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
        probes: collector.probes_sent() - probes_before,
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

    /// Calls of phase `name` across the worker threads of a profile.
    fn worker_calls(profile: &CampaignProfile, name: &str) -> u64 {
        profile
            .snapshot
            .threads
            .iter()
            .filter(|t| t.label.starts_with("worker"))
            .flat_map(|t| &t.nodes)
            .filter(|n| n.name == name)
            .map(|n| n.calls)
            .sum()
    }

    #[test]
    fn each_worker_hands_over_once_per_segment() {
        let spec = CampaignSpec::heterogeneous(17, 24).with_probes(1);
        let observed = ProgressSink {
            every: 6,
            f: std::sync::Arc::new(|_, _, _| {}),
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
                let sends = worker_calls(&stats.profile.expect("profiled"), "send");
                let most = (workers * segments) as u64;
                assert!(
                    (1..=most).contains(&sends),
                    "{workers} workers, {segments} segments: {sends} hand-offs"
                );
                if workers == 1 {
                    assert_eq!(sends, segments as u64);
                }
            }
        }
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
