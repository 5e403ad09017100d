//! The traced run: the per-layer split of one workload's cost, timed
//! from outside by calling each layer's public functions, plus what the
//! existing `obs::Profiler` records inside `fleet` and `simcore`.
//!
//! Every traced run covers every layer, on the workload's own inputs:
//!
//! 1. Untraced baseline: `run_campaign_opts` at the workload's worker
//!    count, profiler off, for the overhead ratio and the reference
//!    report bytes.
//! 2. Pass 1: every device through `fleet::run_device`, profiler off,
//!    then `Collector::absorb`, `Collector::finish` and the JSON render,
//!    each call timed and its allocations counted (the untraced rows).
//! 3. Pass 2: the same loop through `fleet::run_device_prof` with a fresh
//!    enabled profiler per device (`setup`/`des`/`fold` and events).
//! 4. Pass 3: one profiled `run_campaign_opts` for the engine's waits.
//! 5. Strata the population lacks are timed on a side sample of that
//!    stratum alone, with the workload's probes and horizon.
//! 6. The campaign cut into shard pushes as `repro fleet --push-to`
//!    sends them: the state serializer, `protocol::parse_push`,
//!    `Ingest::push`, `Ingest::snapshot_pretty` and
//!    `Daemon::metrics_text` in process, then two daemon epochs that
//!    push the same frames, without and with the `/snapshot` reader.
//!
//! All three passes must render the untraced report byte for byte.
//! Per-layer times are host time; the run prints the host's speed
//! beside them ([`crate::hostspeed`]).

use std::time::Instant;

use fleet::{CampaignSpec, Collector, RunOptions};
use obs::prof::thread_alloc_counts;
use obs::{ProfSnapshot, ToJson};

use crate::checks::check_report;
use crate::hostspeed::{time_reference, REFERENCE_MS};
use crate::ingest::{run_epoch, ShardFramer, SNAPSHOT_PERIOD};
use crate::outcome::Outcome;
use crate::population::{mixed, Workload, INGEST_SHARDS};
use crate::stats::{mean, median, percentile};

/// Devices per side sample of a stratum the population lacks.
const SIDE_DEVICES: u64 = 96;
/// `Ingest::snapshot_pretty` is timed after every this many pushes.
const SNAPSHOT_EVERY: usize = 4;
/// `Daemon::metrics_text` repetitions.
const METRICS_TEXT_REPS: usize = 50;
/// Untraced baseline campaigns, at least.
const MIN_BASELINE: usize = 3;
/// Reference loops timed for the host-speed line.
const HOST_SPEED_REFS: u64 = 11;

/// The stratum whose events per device get their own row: the
/// cross-traffic devices that dominate fleet-mixed.
const CROSS_STRATUM: &str = "n5-evening-cross";

/// Every per-layer metric a traced run prints, with its unit, in order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("fleet.engine.backpressure_share", "ratio"),
        ("fleet.engine.recv_wait_share", "ratio"),
        ("fleet.engine.reorder_peak", "count"),
        ("fleet.shard.device_us.p50", "us"),
        ("fleet.shard.device_us.p99", "us"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for c in mixed(0, 0).classes {
        v.push((format!("fleet.shard.device_us.{}", c.name), "us"));
    }
    for (n, u) in [
        ("fleet.shard.setup_us", "us"),
        ("fleet.shard.setup_allocs", "count"),
        ("fleet.shard.fold_us", "us"),
        ("fleet.shard.fold_allocs", "count"),
        ("fleet.shard.allocs_per_device", "count"),
        ("simcore.events_per_device", "count"),
        ("simcore.events_per_device.n5-evening-cross", "count"),
        ("simcore.host_ns_per_event", "ns"),
        ("simcore.dispatch_allocs_per_event", "count"),
        ("fleet.report.absorb_us", "us"),
        ("fleet.report.absorb_allocs", "count"),
        ("fleet.report.state_json_ms", "ms"),
        ("fleet.report.state_bytes", "bytes"),
        ("obs.json.parse_ms", "ms"),
        ("collectord.ingest.push_ms", "ms"),
        ("collectord.ingest.useful_share", "ratio"),
        ("collectord.snapshot_ms", "ms"),
        ("collectord.snapshot_bytes", "bytes"),
        ("collectord.metrics_text_ms", "ms"),
        ("wire.push_overhead_ms", "ms"),
        ("collectord.lock_wait_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// Host cost of one device, measured around the public calls.
#[derive(Debug, Default, Clone, Copy)]
struct DeviceCost {
    ns: u64,
    allocs: u64,
    setup_ns: u64,
    setup_allocs: u64,
    fold_ns: u64,
    fold_allocs: u64,
    des_allocs: u64,
    events: u64,
}

/// Per-device `setup`, `fold` and `des` costs and the event count from
/// one device's profile.
fn profiled_cost(snap: &ProfSnapshot, cost: &mut DeviceCost) {
    for t in &snap.threads {
        for n in &t.nodes {
            match (n.name, n.parent) {
                ("setup", None) => (cost.setup_ns, cost.setup_allocs) = (n.total_ns, n.allocs),
                ("fold", None) => (cost.fold_ns, cost.fold_allocs) = (n.total_ns, n.allocs),
                ("des", None) => cost.des_allocs += n.allocs,
                ("sim.dispatch", _) => cost.events += n.calls,
                _ => {}
            }
        }
    }
}

/// Pass 1 and pass 2 over devices `0..spec.devices`: per-device costs,
/// plus the two reports rendered from the partials.
struct Passes {
    costs: Vec<DeviceCost>,
    absorb_ns: Vec<f64>,
    absorb_allocs: u64,
    finish_render_ms: f64,
    report1: String,
    report2: String,
    framer: ShardFramer,
}

fn run_passes(spec: &CampaignSpec) -> Passes {
    let n = spec.devices as usize;
    let mut costs = vec![DeviceCost::default(); n];
    let mut absorb_ns = Vec::with_capacity(n);
    let mut absorb_allocs = 0;
    let mut collector = Collector::new(spec);
    let mut framer = ShardFramer::new(spec, INGEST_SHARDS);
    for (i, cost) in costs.iter_mut().enumerate() {
        let (a0, _) = thread_alloc_counts();
        let t = Instant::now();
        let p = fleet::run_device(spec, i as u64);
        cost.ns = t.elapsed().as_nanos() as u64;
        let (a1, _) = thread_alloc_counts();
        cost.allocs = a1 - a0;
        let t = Instant::now();
        collector.absorb(&p);
        absorb_ns.push(t.elapsed().as_nanos() as f64);
        absorb_allocs += thread_alloc_counts().0 - a1;
        framer.absorb(&p);
    }
    let t = Instant::now();
    let report1 = collector.finish().to_json().to_string_pretty();
    let finish_render_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut collector = Collector::new(spec);
    for (i, cost) in costs.iter_mut().enumerate() {
        let prof = obs::Profiler::new();
        let p = fleet::run_device_prof(spec, i as u64, &prof);
        profiled_cost(&prof.snapshot(), cost);
        collector.absorb(&p);
    }
    let report2 = collector.finish().to_json().to_string_pretty();
    Passes {
        costs,
        absorb_ns,
        absorb_allocs,
        finish_render_ms,
        report1,
        report2,
        framer,
    }
}

/// Mean microseconds and events of devices of one stratum simulated
/// alone (for strata the workload's population lacks).
fn side_sample(spec: &CampaignSpec, class: &fleet::DeviceClass) -> (f64, f64) {
    let side = CampaignSpec::new(spec.seed, SIDE_DEVICES, vec![class.clone()])
        .with_probes(spec.probes_per_device)
        .with_horizon(spec.horizon);
    let mut ns = Vec::new();
    let mut events = Vec::new();
    for i in 0..side.devices {
        let t = Instant::now();
        std::hint::black_box(fleet::run_device(&side, i));
        ns.push(t.elapsed().as_nanos() as f64);
        let prof = obs::Profiler::new();
        std::hint::black_box(fleet::run_device_prof(&side, i, &prof));
        let mut c = DeviceCost::default();
        profiled_cost(&prof.snapshot(), &mut c);
        events.push(c.events as f64);
    }
    (mean(&ns) / 1e3, mean(&events))
}

/// Engine shares from a profiled campaign: worker time spent in
/// `backpressure`, collector time spent in `recv_wait`.
fn engine_shares(snap: &ProfSnapshot) -> (f64, f64) {
    let sum = |label: fn(&str) -> bool, name: &str| -> u64 {
        snap.threads
            .iter()
            .filter(|t| label(&t.label))
            .flat_map(|t| t.nodes.iter())
            .filter(|n| n.name == name)
            .map(|n| n.total_ns)
            .sum()
    };
    let worker = |l: &str| l.starts_with("worker");
    let collector = |l: &str| l == "collector";
    (
        sum(worker, "backpressure") as f64 / sum(worker, "worker").max(1) as f64,
        sum(collector, "recv_wait") as f64 / sum(collector, "collect").max(1) as f64,
    )
}

/// The traced run of `workload`.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let spec = workload.spec(seed);
    let workers = workload.workers();
    let n = spec.devices;
    let refs: Vec<f64> = (0..HOST_SPEED_REFS).map(time_reference).collect();
    out.facts.push(format!(
        "host speed: reference loop p50 {:.3} ms (reference {REFERENCE_MS} ms); per-layer times are host time",
        median(&refs)
    ));

    // 1. Untraced baseline.
    let budget = std::time::Duration::from_secs(seconds);
    let start = Instant::now();
    let mut baseline_s = Vec::new();
    let mut reference = String::new();
    while baseline_s.len() < MIN_BASELINE || start.elapsed() < budget {
        let t = Instant::now();
        let (report, _) = fleet::run_campaign_opts(&spec, workers, &RunOptions::default());
        baseline_s.push(t.elapsed().as_secs_f64());
        let report = report.expect("a campaign without a halt hook completes");
        let bytes = report.to_json().to_string_pretty();
        if reference.is_empty() {
            let failures = check_report(&spec, &report);
            if !failures.is_empty() {
                out.fail(n, failures.join("; "));
            }
            reference = bytes;
        } else if bytes != reference {
            out.fail(n, "untraced campaigns rendered different report bytes");
        }
        out.attempted += n;
    }

    // 2-3. Passes 1 and 2.
    let passes = run_passes(&spec);
    out.attempted += 2 * n;
    for (pass, bytes) in [("pass 1", &passes.report1), ("pass 2", &passes.report2)] {
        if *bytes != reference {
            out.fail(n, format!("{pass} report differs from the untraced report"));
        }
    }

    // 4. Pass 3.
    let opts = RunOptions {
        profiler: obs::Profiler::new(),
        ..RunOptions::default()
    };
    let t = Instant::now();
    let (report3, stats) = fleet::run_campaign_opts(&spec, workers, &opts);
    let traced_wall_s = t.elapsed().as_secs_f64();
    out.attempted += n;
    if report3.map(|r| r.to_json().to_string_pretty()).as_deref() != Some(reference.as_str()) {
        out.fail(n, "pass 3 report differs from the untraced report");
    }
    let (bp_share, recv_share) = engine_shares(
        &stats
            .profile
            .as_ref()
            .expect("profiled run returns a profile")
            .snapshot,
    );

    let costs = &passes.costs;
    let sum = |f: fn(&DeviceCost) -> u64| costs.iter().map(f).sum::<u64>() as f64;
    let per_device = |f: fn(&DeviceCost) -> u64| sum(f) / n as f64;
    let device_us: Vec<f64> = costs.iter().map(|c| c.ns as f64 / 1e3).collect();
    let events = sum(|c| c.events);

    out.metric(
        "fleet.engine.backpressure_share",
        bp_share,
        "ratio",
        "worker time in backpressure, pass 3",
    );
    out.metric(
        "fleet.engine.recv_wait_share",
        recv_share,
        "ratio",
        "collector time in recv_wait, pass 3",
    );
    out.metric(
        "fleet.engine.reorder_peak",
        stats.reorder_peak as f64,
        "count",
        "pass 3",
    );
    out.metric(
        "fleet.shard.device_us.p50",
        percentile(&device_us, 0.5),
        "us",
        format!("untraced, n={n}"),
    );
    out.metric(
        "fleet.shard.device_us.p99",
        percentile(&device_us, 0.99),
        "us",
        format!("untraced, n={n}"),
    );

    // 5. Per stratum, from the population or from a side sample.
    let mut cross_events = f64::NAN;
    for class in mixed(seed, 0).classes {
        let idx = spec.classes.iter().position(|c| c.name == class.name);
        let (us, ev, note) = match idx {
            Some(ci) => {
                let mine: Vec<&DeviceCost> = costs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| spec.class_of(*i as u64) == ci)
                    .map(|(_, c)| c)
                    .collect();
                let m = mine.len().max(1) as f64;
                (
                    mine.iter().map(|c| c.ns as f64).sum::<f64>() / m / 1e3,
                    mine.iter().map(|c| c.events as f64).sum::<f64>() / m,
                    format!("untraced mean, n={}", mine.len()),
                )
            }
            None => {
                out.attempted += 2 * SIDE_DEVICES;
                let (us, ev) = side_sample(&spec, &class);
                (
                    us,
                    ev,
                    format!("side sample of the stratum alone, n={SIDE_DEVICES}"),
                )
            }
        };
        if class.name == CROSS_STRATUM {
            cross_events = ev;
        }
        out.metric(
            &format!("fleet.shard.device_us.{}", class.name),
            us,
            "us",
            note,
        );
    }

    out.metric(
        "fleet.shard.setup_us",
        per_device(|c| c.setup_ns) / 1e3,
        "us",
        "pass 2 `setup` phase",
    );
    out.metric(
        "fleet.shard.setup_allocs",
        per_device(|c| c.setup_allocs),
        "count",
        "pass 2, per device",
    );
    out.metric(
        "fleet.shard.fold_us",
        per_device(|c| c.fold_ns) / 1e3,
        "us",
        "pass 2 `fold` phase",
    );
    out.metric(
        "fleet.shard.fold_allocs",
        per_device(|c| c.fold_allocs),
        "count",
        "pass 2, per device",
    );
    out.metric(
        "fleet.shard.allocs_per_device",
        per_device(|c| c.allocs),
        "count",
        "pass 1, untraced",
    );
    out.metric(
        "simcore.events_per_device",
        events / n as f64,
        "count",
        "pass 2 `sim.dispatch` calls",
    );
    out.metric(
        "simcore.events_per_device.n5-evening-cross",
        cross_events,
        "count",
        "pass 2",
    );
    out.metric(
        "simcore.host_ns_per_event",
        (sum(|c| c.ns) - sum(|c| c.setup_ns) - sum(|c| c.fold_ns)) / events,
        "ns",
        "untraced device time minus pass-2 setup and fold, per event",
    );
    out.metric(
        "simcore.dispatch_allocs_per_event",
        sum(|c| c.des_allocs) / events,
        "count",
        "pass 2 `des` allocations per event",
    );
    out.metric(
        "fleet.report.absorb_us",
        mean(&passes.absorb_ns) / 1e3,
        "us",
        "Collector::absorb, pass 1",
    );
    out.metric(
        "fleet.report.absorb_allocs",
        passes.absorb_allocs as f64 / n as f64,
        "count",
        "per absorb, pass 1",
    );
    out.facts.push(format!(
        "fleet.report: finish + render of the campaign report {:.3} ms",
        passes.finish_render_ms
    ));

    // 6. The collector layers on the campaign's shard pushes.
    ingest_layers(workload, seed, passes.framer, &reference, &mut out);

    out.metric(
        "trace.overhead_ratio",
        traced_wall_s / median(&baseline_s),
        "ratio",
        format!(
            "profiled campaign wall / untraced median of {}",
            baseline_s.len()
        ),
    );
    out
}

/// In-process timings of the state serializer, the push parser, the
/// ingest state machine, the snapshot and metrics renderers, then two
/// daemon epochs that push the same frames, without and with the
/// reader.
fn ingest_layers(
    workload: Workload,
    seed: u64,
    framer: ShardFramer,
    reference: &str,
    out: &mut Outcome,
) {
    let spec = workload.spec(seed);
    let encode_ms = framer.encode_ms.clone();
    let frames = framer.into_push_order(seed);
    let sizes: Vec<f64> = frames.iter().map(|f| f.len() as f64).collect();
    out.metric(
        "fleet.report.state_json_ms",
        median(&encode_ms),
        "ms",
        format!("state_json + push frame, n={}", encode_ms.len()),
    );
    out.metric(
        "fleet.report.state_bytes",
        median(&sizes),
        "bytes",
        "median push frame",
    );

    let mut parse_ms = Vec::new();
    let mut push_ms = Vec::new();
    let mut snapshot_ms = Vec::new();
    let mut useful = 0u64;
    let mut snapshot = String::new();
    let mut ingest = collectord::Ingest::new(spec.clone());
    let daemon = collectord::Daemon::new(spec.clone());
    for (i, f) in frames.iter().enumerate() {
        out.attempted += 1;
        let t = Instant::now();
        let push = match collectord::protocol::parse_push(f) {
            Ok(p) => p,
            Err(e) => {
                out.fail(1, format!("parse_push: {e}"));
                continue;
            }
        };
        parse_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let ack = ingest.push(&push.shard, &push.state, push.done, f.len() as u64);
        push_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match ack {
            Ok(a) => {
                useful += u64::from(matches!(
                    a.outcome,
                    collectord::PushOutcome::Absorbed | collectord::PushOutcome::Buffered
                ))
            }
            Err(e) => out.fail(1, format!("Ingest::push: {e}")),
        }
        if i % SNAPSHOT_EVERY == 0 || i + 1 == frames.len() {
            let t = Instant::now();
            snapshot = ingest.snapshot_pretty();
            snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        daemon.ingest_frame(f);
    }
    if snapshot != reference {
        out.fail(
            1,
            "in-process final snapshot differs from the untraced report",
        );
    }
    let metrics_ms: Vec<f64> = (0..METRICS_TEXT_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(daemon.metrics_text());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.metric(
        "obs.json.parse_ms",
        median(&parse_ms),
        "ms",
        format!("protocol::parse_push, n={}", parse_ms.len()),
    );
    out.metric(
        "collectord.ingest.push_ms",
        median(&push_ms),
        "ms",
        format!("Ingest::push, n={}", push_ms.len()),
    );
    out.metric(
        "collectord.ingest.useful_share",
        useful as f64 / frames.len() as f64,
        "ratio",
        "absorbed or buffered / pushes",
    );
    out.metric(
        "collectord.snapshot_ms",
        median(&snapshot_ms),
        "ms",
        format!("Ingest::snapshot_pretty, n={}", snapshot_ms.len()),
    );
    out.metric(
        "collectord.snapshot_bytes",
        snapshot.len() as f64,
        "bytes",
        "final snapshot",
    );
    out.metric(
        "collectord.metrics_text_ms",
        median(&metrics_ms),
        "ms",
        format!("Daemon::metrics_text, n={METRICS_TEXT_REPS}"),
    );

    let quiet = run_epoch(workload, seed, &frames, reference, false);
    let busy = run_epoch(workload, seed, &frames, reference, true);
    for (name, e) in [("without reader", &quiet), ("with reader", &busy)] {
        out.attempted +=
            frames.len() as u64 + e.reader.latency_ms.len() as u64 + e.reader.failed + 1;
        out.failed += e.pushes_failed + e.reader.failed;
        for f in &e.failures {
            out.fail(1, format!("daemon epoch {name}: {f}"));
        }
    }
    let quiet_p50 = median(&quiet.push_ms);
    out.metric(
        "wire.push_overhead_ms",
        quiet_p50 - median(&parse_ms) - median(&push_ms),
        "ms",
        format!(
            "push p50 without reader {quiet_p50:.3} ms minus parse_push and Ingest::push \
             on the same {} frames",
            frames.len()
        ),
    );
    out.metric(
        "collectord.lock_wait_ms",
        median(&busy.push_ms) - quiet_p50,
        "ms",
        format!(
            "push p50 with a /snapshot reader every {} ms (a stress rate) minus without",
            SNAPSHOT_PERIOD.as_millis()
        ),
    );
}
