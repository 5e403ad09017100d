//! The untraced fleet workloads: each campaign runs in a fresh process
//! through the engine's public entry point, and the run reports medians
//! over as many campaigns as fit in its time budget. Every time is
//! reported at the reference host speed ([`crate::hostspeed`]), each
//! scaled by reference loops timed right beside it.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use fleet::RunOptions;
use obs::{Json, ToJson};

use crate::checks::check_report;
use crate::hostspeed::{cpu_time_reference, time_reference, time_reference_on, REFERENCE_MS};
use crate::outcome::Outcome;
use crate::population::Workload;
use crate::procfs;
use crate::stats::{chunked_tail, fnv1a, median, percentile};

/// Campaigns per run, at least, whatever the time budget.
const MIN_CAMPAIGNS: usize = 4;
/// Set-up repetitions per campaign process; the median is kept.
const SETUP_REPS: usize = 101;
/// Samples of each shard-side latency a run collects, at least: enough
/// for ten beyond p99.
pub const MIN_LATENCY_SAMPLES: usize = 1_000;
/// Consecutive slices each campaign runs in. The host changes speed
/// within seconds, so its speed is measured between slices rather than
/// only before and after the whole campaign.
pub const SLICES: u64 = 16;
/// Reference loops, on every CPU at once, timed at each slice boundary;
/// their median is the boundary's. Every CPU, because the engine's
/// threads may run on any of them.
const BOUNDARY_REFS: u64 = 3;
/// Set-ups or shard-side repetitions between two single-threaded
/// reference loops.
const REF_EVERY: usize = 10;

/// One slice of a campaign as [`sliced_campaign`] ran it.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub devices: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The reference loops at its two boundaries, ms.
    pub ref_ms: [f64; 2],
}

impl Slice {
    /// Reference speed ÷ the host's speed around this slice:
    /// multiplying a time by it gives the time at the reference speed.
    fn scale(&self) -> f64 {
        2.0 * REFERENCE_MS / (self.ref_ms[0] + self.ref_ms[1])
    }
}

/// What one campaign process measured. Times are at the reference host
/// speed unless named `host_*`.
#[derive(Debug, Clone)]
pub struct CampaignSample {
    pub devices: u64,
    pub slices: Vec<Slice>,
    pub rss_mb: f64,
    pub setup_s: f64,
    pub host_setup_s: f64,
    pub digest: u64,
    pub report_bytes: u64,
    pub failures: Vec<String>,
    pub push_ms: Vec<f64>,
    pub snapshot_ms: Vec<f64>,
    pub host_push_p50_ms: f64,
    pub host_snapshot_p50_ms: f64,
    /// Single-threaded reference loops among the set-ups (wall) and the
    /// shard-side repetitions (thread CPU), ms.
    pub serial_ref_ms: Vec<f64>,
}

impl CampaignSample {
    /// Campaign wall seconds over its slices: host time, or at the
    /// reference speed with each slice scaled by its boundaries.
    fn wall_s(&self, at_reference: bool) -> f64 {
        self.slices
            .iter()
            .map(|s| s.wall_s * if at_reference { s.scale() } else { 1.0 })
            .sum()
    }
}

/// The campaign as [`SLICES`] consecutive partitions through the
/// engine, each timed alone with reference loops at its boundaries,
/// merged into one collector (`Collector::absorb_state`, outside the
/// timing).
pub fn sliced_campaign(
    spec: &fleet::CampaignSpec,
    workers: usize,
) -> (fleet::Collector, Vec<Slice>) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let boundary = || -> f64 {
        let refs: Vec<f64> = (0..BOUNDARY_REFS)
            .map(|r| time_reference_on(cpus, r))
            .collect();
        median(&refs)
    };
    let mut slices = Vec::new();
    // The process's first loops on fresh threads run slow; discard them.
    boundary();
    let mut before = boundary();
    let mut merged: Option<fleet::Collector> = None;
    for i in 0..SLICES {
        let cpu0 = procfs::self_cpu_secs();
        let t = Instant::now();
        let (slice, _) =
            fleet::run_partition_opts(spec, workers, i, SLICES, &RunOptions::default());
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = procfs::self_cpu_secs() - cpu0;
        let after = boundary();
        slices.push(Slice {
            devices: slice.devices_seen(),
            wall_s,
            cpu_s,
            ref_ms: [before, after],
        });
        before = after;
        match merged.as_mut() {
            None => merged = Some(slice),
            Some(m) => m
                .absorb_state(&slice)
                .expect("consecutive partitions of one campaign merge"),
        }
    }
    (merged.expect("at least one slice"), slices)
}

/// Times `reps` steps, each returning `N` durations, with a
/// single-threaded reference loop, timed by `reference` on the steps'
/// clock, before every [`REF_EVERY`] steps and one after the last.
/// Returns the host durations, the same scaled to the reference speed
/// by the two loops around their chunk, and the loops' times.
fn paced<const N: usize>(
    reps: usize,
    reference: fn(u64) -> f64,
    mut step: impl FnMut() -> [f64; N],
) -> ([Vec<f64>; N], [Vec<f64>; N], Vec<f64>) {
    let mut host: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(reps));
    let mut refs = Vec::new();
    for i in 0..reps {
        if i % REF_EVERY == 0 {
            refs.push(reference(i as u64));
        }
        for (v, t) in host.iter_mut().zip(step()) {
            v.push(t);
        }
    }
    refs.push(reference(reps as u64));
    let scaled = std::array::from_fn(|k| {
        host[k]
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let j = i / REF_EVERY;
                t * 2.0 * REFERENCE_MS / (refs[j] + refs[j + 1])
            })
            .collect()
    });
    (host, scaled, refs)
}

/// Set-up as the engine sees it: build the spec, then run an empty
/// campaign, which creates the collector and spawns and joins the
/// workers without simulating a device.
fn setup_once(workload: Workload, seed: u64) -> [f64; 1] {
    let t = Instant::now();
    let mut spec = workload.spec(seed);
    spec.devices = 0;
    let (report, _) = fleet::run_campaign_opts(&spec, workload.workers(), &RunOptions::default());
    std::hint::black_box(report);
    [t.elapsed().as_secs_f64()]
}

/// The shard side of the collector protocol on a finished campaign:
/// encoding one final push (state serializer plus frame document), and
/// rendering the report `fleet.json` and `/snapshot` serve. Both are
/// single-threaded, so they are timed on the thread's CPU clock: a rep
/// the scheduler pauses is not charged for the pause.
fn shard_side_once(collector: &fleet::Collector) -> [f64; 2] {
    let t = procfs::thread_cpu_ms();
    let frame = collectord::protocol::push_doc("0/1", true, &collector.state_json()).to_string();
    let push_ms = procfs::thread_cpu_ms() - t;
    std::hint::black_box(frame);
    let t = procfs::thread_cpu_ms();
    let body = collector.report().to_json().to_string_pretty();
    let snapshot_ms = procfs::thread_cpu_ms() - t;
    std::hint::black_box(body);
    [push_ms, snapshot_ms]
}

/// The body of one campaign process: [`SETUP_REPS`] set-ups, the sliced
/// campaign, the output checks, then `latency_reps` shard-side pushes
/// and report renders of the finished campaign.
pub fn child(workload: Workload, seed: u64, latency_reps: usize) -> Json {
    let ([host_setup], [setup], mut serial_ref_ms) =
        paced(SETUP_REPS, time_reference, || setup_once(workload, seed));
    let spec = workload.spec(seed);
    let (collector, slices) = sliced_campaign(&spec, workload.workers());
    let rss_mb = procfs::self_peak_rss_mb();

    let report = collector.report();
    let bytes = report.to_json().to_string_pretty();
    let failures = check_report(&spec, &report);
    let ([host_push, host_snapshot], [push_ms, snapshot_ms], refs) =
        paced(latency_reps, cpu_time_reference, || {
            shard_side_once(&collector)
        });
    serial_ref_ms.extend(refs);

    let mut doc = Json::object();
    doc.set("devices", spec.devices);
    doc.set(
        "slice_devices",
        slices.iter().map(|s| s.devices).collect::<Vec<u64>>(),
    );
    doc.set(
        "slice_wall_s",
        slices.iter().map(|s| s.wall_s).collect::<Vec<f64>>(),
    );
    doc.set(
        "slice_cpu_s",
        slices.iter().map(|s| s.cpu_s).collect::<Vec<f64>>(),
    );
    doc.set(
        "slice_ref_ms",
        slices.iter().flat_map(|s| s.ref_ms).collect::<Vec<f64>>(),
    );
    doc.set("rss_mb", rss_mb);
    doc.set("setup_s", median(&setup));
    doc.set("host_setup_s", median(&host_setup));
    doc.set("digest", format!("{:016x}", fnv1a(bytes.as_bytes())));
    doc.set("report_bytes", bytes.len() as u64);
    doc.set("failures", failures);
    doc.set("push_ms", push_ms);
    doc.set("snapshot_ms", snapshot_ms);
    doc.set("host_push_p50_ms", percentile(&host_push, 0.5));
    doc.set("host_snapshot_p50_ms", percentile(&host_snapshot, 0.5));
    doc.set("serial_ref_ms", serial_ref_ms);
    doc
}

fn parse_sample(doc: &Json) -> Option<CampaignSample> {
    let num = |k: &str| doc.get(k).and_then(Json::as_f64);
    let list =
        |k: &str| -> Option<Vec<f64>> { doc.get(k)?.as_arr()?.iter().map(Json::as_f64).collect() };
    let (devices, walls, cpus, refs) = (
        list("slice_devices")?,
        list("slice_wall_s")?,
        list("slice_cpu_s")?,
        list("slice_ref_ms")?,
    );
    if walls.len() != devices.len()
        || cpus.len() != devices.len()
        || refs.len() != 2 * devices.len()
    {
        return None;
    }
    let slices = (0..devices.len())
        .map(|i| Slice {
            devices: devices[i] as u64,
            wall_s: walls[i],
            cpu_s: cpus[i],
            ref_ms: [refs[2 * i], refs[2 * i + 1]],
        })
        .collect();
    Some(CampaignSample {
        devices: num("devices")? as u64,
        slices,
        rss_mb: num("rss_mb")?,
        setup_s: num("setup_s")?,
        host_setup_s: num("host_setup_s")?,
        digest: u64::from_str_radix(doc.get("digest")?.as_str()?, 16).ok()?,
        report_bytes: num("report_bytes")? as u64,
        failures: doc
            .get("failures")?
            .as_arr()?
            .iter()
            .map(|f| f.as_str().map(str::to_string))
            .collect::<Option<_>>()?,
        push_ms: list("push_ms")?,
        snapshot_ms: list("snapshot_ms")?,
        host_push_p50_ms: num("host_push_p50_ms")?,
        host_snapshot_p50_ms: num("host_snapshot_p50_ms")?,
        serial_ref_ms: list("serial_ref_ms")?,
    })
}

/// Run one campaign in a fresh process of this executable.
pub fn spawn_campaign(
    workload: Workload,
    seed: u64,
    latency_reps: usize,
) -> Result<CampaignSample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "child-fleet",
            workload.name(),
            &seed.to_string(),
            &latency_reps.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a campaign process: {e}"))?;
    if !out.status.success() {
        return Err(format!("campaign process exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = BufReader::new(stdout.as_bytes())
        .lines()
        .map_while(Result::ok)
        .find_map(|l| l.strip_prefix("CHILD ").map(str::to_string))
        .ok_or("campaign process printed no result")?;
    let doc = Json::parse(&line).map_err(|e| format!("campaign result: {e}"))?;
    parse_sample(&doc).ok_or_else(|| "campaign result is missing fields".to_string())
}

/// Fold campaign samples into the run's outcome: every time at the
/// reference host speed, and the host-time figures as a fact beside
/// them.
pub fn summarize(samples: &[CampaignSample], outcome: &mut Outcome) {
    let n = samples.len();
    let per = |f: &dyn Fn(&CampaignSample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    let slices: Vec<&Slice> = samples.iter().flat_map(|s| &s.slices).collect();
    let pooled = |f: fn(&CampaignSample) -> &Vec<f64>| -> Vec<f64> {
        samples.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let devices: u64 = samples.iter().map(|s| s.devices).sum();
    let cpu_s = |at_reference: bool| -> f64 {
        slices
            .iter()
            .map(|s| s.cpu_s * if at_reference { s.scale() } else { 1.0 })
            .sum()
    };
    outcome.metric(
        "devices_per_s",
        median(&per(&|s| s.devices as f64 / s.wall_s(true))),
        "1/s",
        format!("median of {n} campaigns, at the reference host speed"),
    );
    outcome.metric(
        "cpu_us_per_device",
        cpu_s(true) * 1e6 / devices as f64,
        "us",
        format!("over {n} campaigns, at the reference host speed"),
    );
    latency_metrics(
        outcome,
        "push",
        990,
        &pooled(|s| &s.push_ms),
        "shard-side push encode, thread CPU at the reference host speed",
    );
    latency_metrics(
        outcome,
        "snapshot",
        950,
        &pooled(|s| &s.snapshot_ms),
        "report render, thread CPU at the reference host speed",
    );
    outcome.metric(
        "peak_rss_mb",
        median(&per(&|s| s.rss_mb)),
        "MB",
        format!("median of {n} campaign processes"),
    );
    outcome.metric(
        "setup_s",
        median(&per(&|s| s.setup_s)),
        "s",
        format!(
            "median of {n} campaigns, each the median of {SETUP_REPS} set-ups at the reference host speed"
        ),
    );
    outcome.facts.push(format!(
        "host speed: {:.3}x the reference during the slices, {:.3}x single-threaded \
         (reference loop {REFERENCE_MS} ms)",
        median(&slices.iter().map(|s| s.scale()).collect::<Vec<_>>()),
        REFERENCE_MS / median(&pooled(|s| &s.serial_ref_ms)),
    ));
    outcome.facts.push(format!(
        "host time, not scaled: devices_per_s {:.1}, cpu_us_per_device {:.2}, push_p50_ms {:.4} \
         and snapshot_p50_ms {:.4} (thread CPU), setup_s {:.7}",
        median(&per(&|s| s.devices as f64 / s.wall_s(false))),
        cpu_s(false) * 1e6 / devices as f64,
        median(&per(&|s| s.host_push_p50_ms)),
        median(&per(&|s| s.host_snapshot_p50_ms)),
        median(&per(&|s| s.host_setup_s)),
    ));
}

/// `<what>_p50_ms` over pooled samples, and the tail `<what>_p<t>_ms`
/// (`tail_per_mille` = 990 for p99, 950 for p95) as the median of that
/// percentile over consecutive chunks with ten samples beyond it each.
/// Too few samples for one chunk is an output-check failure.
pub fn latency_metrics(
    outcome: &mut Outcome,
    what: &str,
    tail_per_mille: usize,
    ms: &[f64],
    label: &str,
) {
    let n = ms.len();
    outcome.metric(
        &format!("{what}_p50_ms"),
        percentile(ms, 0.5),
        "ms",
        format!("{label}, n={n}"),
    );
    let (tail, chunks) = chunked_tail(ms, tail_per_mille).unwrap_or((f64::NAN, 0));
    let pct = tail_per_mille / 10;
    outcome.metric(
        &format!("{what}_p{pct}_ms"),
        tail,
        "ms",
        format!("{label}, median p{pct} of {chunks} chunks, n={n}"),
    );
    if chunks == 0 {
        outcome.fail(0, format!("{what}: {n} samples cannot support a p{pct}"));
    }
}

/// The untraced run of a fleet workload.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut samples: Vec<CampaignSample> = Vec::new();
    let per_campaign = MIN_LATENCY_SAMPLES.div_ceil(MIN_CAMPAIGNS);
    while samples.len() < MIN_CAMPAIGNS || start.elapsed() < budget {
        match spawn_campaign(workload, seed, per_campaign) {
            Ok(s) => samples.push(s),
            Err(e) => {
                outcome.fail(workload.spec(seed).devices, e);
                outcome.attempted += workload.spec(seed).devices;
                break;
            }
        }
    }
    check_samples(&samples, &mut outcome);
    if !samples.is_empty() {
        summarize(&samples, &mut outcome);
    }
    outcome
}

/// Attempted and failed devices, and byte-identical reports across the
/// run's campaigns.
pub fn check_samples(samples: &[CampaignSample], outcome: &mut Outcome) {
    let Some(first) = samples.first() else {
        outcome.fail(0, "no campaign completed");
        return;
    };
    for (i, s) in samples.iter().enumerate() {
        outcome.attempted += s.devices;
        if !s.failures.is_empty() {
            outcome.fail(
                s.devices,
                format!("campaign {i}: {}", s.failures.join("; ")),
            );
        } else if (s.digest, s.report_bytes) != (first.digest, first.report_bytes) {
            outcome.fail(
                s.devices,
                format!("campaign {i}: report bytes differ from campaign 0"),
            );
        }
    }
    outcome.facts.push(format!(
        "report: {} bytes, fnv1a {:016x}, identical across {} campaigns",
        first.report_bytes,
        first.digest,
        samples.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sliced_campaign_reports_what_one_campaign_does() {
        for w in [Workload::FleetMixed, Workload::FleetShort] {
            let mut spec = w.spec(crate::DEFAULT_SEED);
            spec.devices = 100;
            let (collector, slices) = sliced_campaign(&spec, w.workers());
            let (report, _) = fleet::run_campaign_opts(&spec, w.workers(), &RunOptions::default());
            assert_eq!(
                collector.report().to_json().to_string_pretty(),
                report.expect("completes").to_json().to_string_pretty(),
                "{w:?}"
            );
            assert_eq!(slices.len() as u64, SLICES);
            assert_eq!(slices.iter().map(|s| s.devices).sum::<u64>(), 100);
            assert!(slices.iter().all(|s| s.wall_s > 0.0 && s.scale() > 0.0));
        }
    }

    #[test]
    fn paced_steps_are_scaled_by_the_loops_around_their_chunk() {
        let mut k = 0.0;
        let (host, scaled, refs) = paced(25, cpu_time_reference, || {
            k += 1.0;
            [k]
        });
        assert_eq!(host[0].len(), 25);
        // Chunks of ten steps: refs before steps 0, 10 and 20, and after 25.
        assert_eq!(refs.len(), 4);
        for (i, (h, s)) in host[0].iter().zip(&scaled[0]).enumerate() {
            let j = i / REF_EVERY;
            let want = h * 2.0 * REFERENCE_MS / (refs[j] + refs[j + 1]);
            assert_eq!(*s, want);
        }
    }
}
