//! `repro` — regenerate the paper's tables and figures from the command
//! line.
//!
//! ```text
//! repro [--k N] [--seed S] [--out DIR] [--metrics-json] [--metrics-text]
//!       [--trace-out FILE] [--trace-spans FILE] [-v] [--quiet]
//!       [--fleet-devices N] [--fleet-workers W]
//!       [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]
//!       [--partition i/k] [--fleet-halt-after N]
//!       [--push-to ADDR] [--push-every N]
//!       [--listen ADDR] [--http ADDR] [--state-dir DIR]
//!       [--chaos-seed S] [--chaos-kills N]
//!       [--bench-baseline FILE] [--bench-candidate FILE] [--bench-factor F]
//!       [table1|table2|table3|table4|table5|fig3|fig7|fig8|fig9|
//!        seeds|ablations|faults|telemetry|waterfall|fleet|
//!        fleet-merge|collectord|chaos|profile|bench-snapshot|bench-gate|all]...
//! ```
//!
//! `--k` (probes per configuration, default 100) must lie in 1..=65 536,
//! the probes one session's 16-bit ports and sequence numbers can tell
//! apart; any other value exits 2.
//!
//! Each experiment prints its table/figure to stdout and writes the raw
//! result as JSON under `--out` (default `results/`). The `telemetry`
//! experiment runs instrumented sessions and emits the workspace metrics
//! snapshot (SDIO wake-latency, PSM beacon-buffering, per-layer
//! counters); `--metrics-json` / `--metrics-text` choose the format
//! (default: Prometheus-style text; the last one given wins). The
//! `waterfall` experiment runs a traced session and renders per-probe
//! span waterfalls; `--trace-out` additionally writes the spans as
//! Chrome `trace_event` JSON (loadable in `chrome://tracing` /
//! Perfetto) and `--trace-spans` as JSON-lines.
//! `bench-snapshot` (not part of `all`) runs the `am_stats::bench` harness at a
//! reduced budget and writes `BENCH_2.json` with median ns per scenario;
//! `bench-gate` compares a fresh snapshot against the committed baseline
//! and exits non-zero when the tracer's enabled-path budget regresses.
//! `fleet` (not part of `all` either — it is deliberately big) runs a
//! sharded multi-device campaign (default 10 000 devices) plus a
//! worker-scaling table, and writes the merged population report as
//! `fleet.json`. Campaigns survive process death, split across
//! processes, and stream to a collector daemon:
//!
//! * `--checkpoint FILE` writes an atomic resume checkpoint every
//!   `--checkpoint-every` devices (default 64); `--resume FILE`
//!   restarts a killed campaign from it and yields `fleet.json`
//!   byte-identical to an uninterrupted run.
//! * `--partition i/k` runs only the contiguous device slice `i` of
//!   `k`, writing the mergeable partial `fleet.partial-i-of-k.json`;
//!   `repro fleet-merge a.json b.json ...` (with the same `--seed` /
//!   `--fleet-devices`) folds the partials into `fleet.json`, again
//!   byte-identical to the single-process report.
//! * `--fleet-halt-after N` simulates a kill after absorbing N devices
//!   (used by CI to exercise the resume path deterministically).
//! * `--push-to ADDR` additionally streams cumulative partial state to
//!   a `repro collectord` daemon every `--push-every` devices (default
//!   64), with a final push when the slice completes. The daemon's
//!   `/snapshot` is then byte-identical to `fleet.json` once every
//!   partition has landed.
//!
//! `repro collectord --seed S --fleet-devices N` runs the collector
//! daemon itself: a push listener on `--listen` (default
//! `127.0.0.1:9310`) and an HTTP server on `--http` (default
//! `127.0.0.1:9311`) serving `/` (dashboard), `/snapshot`, `/status`,
//! `/metrics`, and `/healthz`. With `--state-dir DIR` the daemon is
//! crash-safe: every accepted push is journaled to `DIR` *before* it
//! changes anything or is acked, SIGTERM/SIGINT write a final
//! `snapshot.json`, and a restarted daemon replays the journal —
//! `/snapshot` after recovery is byte-identical to a never-killed run. `repro chaos`
//! soak-tests exactly that: a 2-partition campaign pushes through
//! seeded wire faults ([`wire::chaos`]) into a `--state-dir` daemon
//! that is SIGKILLed and restarted `--chaos-kills` times mid-campaign
//! (driven by shard 0's pushes, so every kill lands before its final),
//! and the run fails unless the recovered `/snapshot` matches the
//! single-process `fleet.json` byte for byte.

use std::path::{Path, PathBuf};

use obs::{error, info, warn, ToJson, Tracer};

// Count allocations into the profiler's thread-local counters so
// `repro profile` attributes heap traffic per phase. Pure counting on
// top of the system allocator; without it the allocation columns read
// zero but everything else works.
#[global_allocator]
static ALLOC: obs::prof::CountingAlloc = obs::prof::CountingAlloc;
use testbed::experiments::{
    ablations, faults, fig7, fig8, fig9, ping_matrix, seeds, table1, table3, table4, table5,
    telemetry, waterfall,
};

struct Options {
    k: u32,
    seed: u64,
    out: PathBuf,
    metrics_json: bool,
    trace_out: Option<PathBuf>,
    trace_spans: Option<PathBuf>,
    fleet_devices: u64,
    fleet_workers: Option<usize>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: u64,
    resume: Option<PathBuf>,
    partition: Option<(u64, u64)>,
    fleet_halt_after: Option<u64>,
    push_to: Option<String>,
    push_every: u64,
    listen: String,
    http: String,
    state_dir: Option<PathBuf>,
    chaos_seed: u64,
    chaos_kills: u32,
    bench_baseline: PathBuf,
    bench_candidate: Option<PathBuf>,
    bench_factor: f64,
    merge_inputs: Vec<PathBuf>,
    experiments: Vec<String>,
}

/// Parse `i/k` with `0 <= i < k`.
fn parse_partition(s: &str) -> Option<(u64, u64)> {
    let (i, k) = s.split_once('/')?;
    let (i, k) = (i.parse().ok()?, k.parse().ok()?);
    if k == 0 || i >= k {
        return None;
    }
    Some((i, k))
}

fn parse_args() -> Options {
    let mut opts = Options {
        k: 100,
        seed: 2016,
        out: PathBuf::from("results"),
        metrics_json: false,
        trace_out: None,
        trace_spans: None,
        fleet_devices: 10_000,
        fleet_workers: None,
        checkpoint: None,
        checkpoint_every: 64,
        resume: None,
        partition: None,
        fleet_halt_after: None,
        push_to: None,
        push_every: 64,
        listen: "127.0.0.1:9310".to_string(),
        http: "127.0.0.1:9311".to_string(),
        state_dir: None,
        chaos_seed: 7,
        chaos_kills: 2,
        bench_baseline: PathBuf::from("baselines/BENCH_2.json"),
        bench_candidate: None,
        bench_factor: 10.0,
        merge_inputs: Vec::new(),
        experiments: Vec::new(),
    };
    let mut quiet = false;
    let mut verbosity = 0u8;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--k" => {
                opts.k = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&k| (1..=testbed::MAX_PROBES).contains(&u64::from(k)))
                    .unwrap_or_else(|| {
                        die(&format!(
                            "--k needs a probe count from 1 to {}",
                            testbed::MAX_PROBES
                        ))
                    })
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"))
            }
            "--out" => {
                opts.out = args
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| die("--out needs a path"))
            }
            "--fleet-devices" => {
                opts.fleet_devices = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--fleet-devices needs a number"))
            }
            "--fleet-workers" => {
                opts.fleet_workers = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--fleet-workers needs a number")),
                )
            }
            "--checkpoint" => {
                opts.checkpoint = Some(
                    args.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| die("--checkpoint needs a path")),
                )
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--checkpoint-every needs a positive number"))
            }
            "--resume" => {
                opts.resume = Some(
                    args.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| die("--resume needs a path")),
                )
            }
            "--partition" => {
                opts.partition = Some(
                    args.next()
                        .as_deref()
                        .and_then(parse_partition)
                        .unwrap_or_else(|| die("--partition needs i/k with i < k")),
                )
            }
            "--fleet-halt-after" => {
                opts.fleet_halt_after = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--fleet-halt-after needs a number")),
                )
            }
            "--push-to" => {
                opts.push_to = Some(
                    args.next()
                        .unwrap_or_else(|| die("--push-to needs host:port")),
                )
            }
            "--push-every" => {
                opts.push_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--push-every needs a positive number"))
            }
            "--listen" => {
                opts.listen = args
                    .next()
                    .unwrap_or_else(|| die("--listen needs host:port"))
            }
            "--http" => opts.http = args.next().unwrap_or_else(|| die("--http needs host:port")),
            "--state-dir" => {
                opts.state_dir = Some(
                    args.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| die("--state-dir needs a path")),
                )
            }
            "--chaos-seed" => {
                opts.chaos_seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--chaos-seed needs a number"))
            }
            "--chaos-kills" => {
                opts.chaos_kills = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--chaos-kills needs a number"))
            }
            "--bench-baseline" => {
                opts.bench_baseline = args
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| die("--bench-baseline needs a path"))
            }
            "--bench-candidate" => {
                opts.bench_candidate = Some(
                    args.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| die("--bench-candidate needs a path")),
                )
            }
            "--bench-factor" => {
                opts.bench_factor = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&f: &f64| f > 1.0)
                    .unwrap_or_else(|| die("--bench-factor needs a factor > 1"))
            }
            "--metrics-json" => opts.metrics_json = true,
            "--metrics-text" => opts.metrics_json = false,
            "--trace-out" => {
                opts.trace_out = Some(
                    args.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| die("--trace-out needs a path")),
                )
            }
            "--trace-spans" => {
                opts.trace_spans = Some(
                    args.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| die("--trace-spans needs a path")),
                )
            }
            "--quiet" | "-q" => quiet = true,
            "-v" | "--verbose" => verbosity += 1,
            "--help" | "-h" => {
                println!(
                    "usage: repro [--k N] [--seed S] [--out DIR] \
                     [--metrics-json] [--metrics-text] \
                     [--trace-out FILE] [--trace-spans FILE] [-v] [--quiet] \
                     [--fleet-devices N] [--fleet-workers W] \
                     [--checkpoint FILE] [--checkpoint-every N] \
                     [--resume FILE] [--partition i/k] [--fleet-halt-after N] \
                     [--push-to ADDR] [--push-every N] \
                     [--listen ADDR] [--http ADDR] [--state-dir DIR] \
                     [--chaos-seed S] [--chaos-kills N] \
                     [--bench-baseline FILE] [--bench-candidate FILE] \
                     [--bench-factor F] \
                     [table1|table2|table3|table4|table5|fig3|fig7|fig8|fig9|\
                     seeds|ablations|faults|telemetry|waterfall|fleet|\
                     fleet-merge|collectord|chaos|profile|bench-snapshot|\
                     bench-gate|all]...\n\
                     \n\
                     --trace-out FILE    write the waterfall session's spans as\n\
                     \u{20}                    Chrome trace_event JSON (chrome://tracing)\n\
                     --trace-spans FILE  write the same spans as JSON-lines\n\
                     --fleet-devices N   fleet campaign population (default 10000)\n\
                     --fleet-workers W   worker threads (default: CPU count)\n\
                     --checkpoint FILE   write an atomic fleet resume checkpoint\n\
                     \u{20}                    every --checkpoint-every devices (default 64)\n\
                     --resume FILE       resume a killed fleet campaign from its\n\
                     \u{20}                    checkpoint (same --seed/--fleet-devices)\n\
                     --partition i/k     run only device slice i of k; writes the\n\
                     \u{20}                    mergeable fleet.partial-i-of-k.json\n\
                     --fleet-halt-after N  simulate a kill after N absorbed devices\n\
                     --push-to ADDR      stream cumulative partial state to a\n\
                     \u{20}                    collectord daemon every --push-every\n\
                     \u{20}                    devices (default 64)\n\
                     --listen ADDR       collectord push listener (127.0.0.1:9310)\n\
                     --http ADDR         collectord HTTP server (127.0.0.1:9311)\n\
                     --state-dir DIR     collectord: journal accepted pushes to DIR\n\
                     \u{20}                    (before they are applied or acked) and\n\
                     \u{20}                    replay them on restart\n\
                     --chaos-seed S      chaos: fault-injection schedule seed (7)\n\
                     --chaos-kills N     chaos: daemon kill/restart cycles (2)\n\
                     \n\
                     fleet-merge A B ... folds partition partials back into\n\
                     fleet.json (run with the partitions' --seed and\n\
                     --fleet-devices).\n\
                     \n\
                     collectord runs the streaming collector daemon for the\n\
                     campaign given by --seed/--fleet-devices; shards connect\n\
                     with --push-to, and /snapshot serves the live campaign\n\
                     JSON (byte-identical to fleet.json once complete). With\n\
                     --state-dir the daemon is crash-safe: acked pushes are\n\
                     journaled first, SIGTERM/SIGINT write a final snapshot,\n\
                     and a restart replays the journal.\n\
                     \n\
                     chaos runs the crash-safety soak: a 2-partition campaign\n\
                     pushes (with seeded wire faults severing connections)\n\
                     into a --state-dir daemon that is SIGKILLed and\n\
                     restarted --chaos-kills times mid-run, plus once more\n\
                     after completion; exits non-zero unless the recovered\n\
                     /snapshot is byte-identical to the single-process\n\
                     fleet.json.\n\
                     \n\
                     profile runs a self-profiled fleet campaign\n\
                     (--seed/--fleet-devices/--fleet-workers), prints the\n\
                     per-phase / per-layer / per-stratum attribution table,\n\
                     writes profile.json, profile.folded (flamegraph folded\n\
                     stacks) and profile_trace.json (chrome://tracing), and\n\
                     fails if less than 95% of the thread-time budget is\n\
                     attributed to named phases. It runs the campaign 7\n\
                     times profiled and 7 times not, alternating, and also\n\
                     fails if the median profiled/unprofiled wall ratio of\n\
                     the pairs is above 1.3.\n\
                     \n\
                     fleet and bench-snapshot run only when named explicitly\n\
                     (not under 'all'); fleet writes fleet.json, bench-snapshot\n\
                     writes BENCH_2.json (median ns per scenario). bench-gate\n\
                     compares --bench-candidate (default: a fresh snapshot)\n\
                     against --bench-baseline and fails when the obs tracer\n\
                     scenarios regress by more than --bench-factor (default 10)."
                );
                std::process::exit(0);
            }
            "fleet-merge" => {
                opts.experiments.push("fleet-merge".to_string());
                // Everything after `fleet-merge` is a partial-report path.
                opts.merge_inputs.extend(args.by_ref().map(PathBuf::from));
            }
            other => opts.experiments.push(other.to_string()),
        }
    }
    obs::log::init_from_flags(quiet, verbosity);
    if opts.experiments.is_empty() {
        opts.experiments.push("all".to_string());
    }
    const KNOWN: [&str; 22] = [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "fig3",
        "fig7",
        "fig8",
        "fig9",
        "seeds",
        "ablations",
        "faults",
        "telemetry",
        "waterfall",
        "fleet",
        "fleet-merge",
        "collectord",
        "chaos",
        "profile",
        "bench-snapshot",
        "bench-gate",
        "all",
    ];
    for e in &opts.experiments {
        if !KNOWN.contains(&e.as_str()) {
            die(&format!("unknown experiment '{e}' (see --help)"));
        }
    }
    opts
}

fn die(msg: &str) -> ! {
    error!("repro: {msg}");
    std::process::exit(2);
}

fn write_json<T: ToJson>(dir: &Path, name: &str, value: &T) {
    write_raw(
        dir,
        &format!("{name}.json"),
        value.to_json().to_string_pretty(),
    );
}

fn write_raw(dir: &Path, file: &str, contents: String) {
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(file);
    std::fs::write(&path, contents).expect("write result");
    info!("[saved {}]", path.display());
}

/// Run the collector daemon forever: push listener + HTTP server.
/// With `--state-dir` the daemon journals each accepted push before it
/// is applied or acked, replays the journal on startup, and writes a
/// final snapshot on SIGTERM/SIGINT.
fn run_collectord(opts: &Options) -> ! {
    let spec = fleet::CampaignSpec::heterogeneous(opts.seed, opts.fleet_devices);
    info!(
        "collectord: expecting campaign seed {} with {} devices × {} probes \
         (fingerprint {:016x})",
        spec.seed,
        spec.devices,
        spec.probes_per_device,
        spec.fingerprint()
    );
    let ingest = std::net::TcpListener::bind(&opts.listen)
        .unwrap_or_else(|e| die(&format!("collectord: bind {}: {e}", opts.listen)));
    let http = std::net::TcpListener::bind(&opts.http)
        .unwrap_or_else(|e| die(&format!("collectord: bind {}: {e}", opts.http)));
    let daemon = match &opts.state_dir {
        Some(dir) => {
            info!("collectord: journaling ingest state to {}", dir.display());
            let store = collectord::Store::open(dir).unwrap_or_else(|e| {
                die(&format!("collectord: --state-dir {}: {e}", dir.display()))
            });
            collectord::Daemon::with_store(spec, store)
                .unwrap_or_else(|e| die(&format!("collectord: journal recovery failed: {e}")))
        }
        None => collectord::Daemon::new(spec),
    };
    // SIGTERM/SIGINT: write a rendered snapshot.json beside the journal
    // (every acked push is already on disk) and exit cleanly instead of
    // dying mid-write.
    collectord::signals::install();
    let flusher = daemon.clone();
    std::thread::spawn(move || loop {
        if collectord::signals::terminated() {
            info!("collectord: termination signal — writing snapshot.json ...");
            match flusher.flush() {
                Ok(()) => std::process::exit(0),
                Err(e) => {
                    error!("collectord: shutdown flush failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
    let ingest_daemon = daemon.clone();
    std::thread::spawn(move || ingest_daemon.serve_ingest(ingest));
    daemon.serve_http(http);
    unreachable!("serve_http loops forever");
}

/// Run the fleet partition slice `i/k`, optionally streaming cumulative
/// state to a collectord daemon, and write the mergeable partial.
fn run_fleet_partition(opts: &Options, spec: &fleet::CampaignSpec, workers: usize) {
    let (i, k) = opts.partition.unwrap_or((0, 1));
    let (start, end) = fleet::partition_range(spec.devices, i, k);
    info!(
        "running fleet partition {i}/{k}: devices {start}..{end} of {} \
         on {workers} workers ...",
        spec.devices
    );
    let shard = format!("{i}/{k}");
    let client = opts.push_to.as_deref().map(|addr| {
        info!(
            "streaming partial state to collectord at {addr} every {} devices ...",
            opts.push_every
        );
        // Reconnecting client: transient failures (daemon restarting,
        // dropped connections) are retried with seeded backoff; typed
        // daemon rejections fail fast below. Safe because pushes are
        // cumulative and the daemon's ingest is idempotent.
        std::sync::Mutex::new(collectord::ResilientPushClient::new(
            addr,
            &shard,
            collectord::RetryPolicy::new(spec.seed ^ (i << 8) ^ k),
        ))
    });
    let client = std::sync::Arc::new(client);
    let run_opts = fleet::RunOptions {
        progress: opts.push_to.as_ref().map(|_| {
            let client = client.clone();
            fleet::ProgressSink {
                every: opts.push_every,
                f: std::sync::Arc::new(move |collector, done| {
                    // The final push happens explicitly below, off the
                    // returned collector, so failures can be fatal there.
                    if done {
                        return;
                    }
                    if let Some(c) = client.as_ref() {
                        match c.lock().unwrap().push(collector, false) {
                            Ok(collectord::Delivery::Delivered(_)) => {}
                            Ok(collectord::Delivery::Dropped { attempts }) => warn!(
                                "fleet: mid-run push dropped after {attempts} attempts \
                                 (degraded mode — campaign continues, next push covers \
                                 the same devices)"
                            ),
                            // A typed, non-retryable daemon rejection:
                            // the push itself is wrong (spec mismatch,
                            // overlap, ...) and every retry would fail
                            // identically. Transient I/O never lands
                            // here — the client retries it internally.
                            Err(e) => die(&format!("fleet: daemon rejected push: {e}")),
                        }
                    }
                }),
            }
        }),
        ..fleet::RunOptions::default()
    };
    let (collector, stats) = fleet::run_partition_opts(spec, workers, i, k, &run_opts);
    if let Some(c) = client.as_ref() {
        let mut c = c.lock().unwrap();
        let ack = match c.push(&collector, true) {
            Ok(collectord::Delivery::Delivered(ack)) => ack,
            Ok(collectord::Delivery::Dropped { .. }) => {
                unreachable!("final pushes exhaust their budget as Err, never Dropped")
            }
            Err(e) if !e.is_retryable() => die(&format!(
                "fleet: daemon rejected final push (not retryable): {e}"
            )),
            Err(e) => die(&format!(
                "fleet: final push failed after {} attempts (transient I/O — is the \
                 daemon reachable?): {e}",
                collectord::RetryPolicy::new(0).max_final_attempts
            )),
        };
        let pstats = c.stats();
        println!(
            "partition {i}/{k}: final push {} ({} devices absorbed daemon-side{}); \
             {} pushes delivered, {} dropped, {} reconnects",
            ack.outcome.status(),
            ack.devices_absorbed,
            if ack.complete {
                ", campaign complete"
            } else {
                ""
            },
            pstats.delivered,
            pstats.dropped,
            pstats.reconnects,
        );
    }
    println!(
        "partition {i}/{k}: {} devices in {:.2} s ({:.1} devices/s)",
        stats.devices,
        stats.wall.as_secs_f64(),
        stats.devices_per_sec()
    );
    write_raw(
        &opts.out,
        &format!("fleet.partial-{i}-of-{k}.json"),
        collector.state_json().to_string_pretty(),
    );
}

/// Minimal HTTP GET for the chaos soak: returns the 200 response body,
/// or `None` when the daemon is unreachable (e.g. mid-restart).
fn http_get(addr: &str, path: &str) -> Option<String> {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect_timeout(
        &addr.parse().ok()?,
        std::time::Duration::from_millis(500),
    )
    .ok()?;
    s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .ok()?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .ok()?;
    let mut buf = String::new();
    s.read_to_string(&mut buf).ok()?;
    let (head, body) = buf.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.1 200").then(|| body.to_string())
}

/// The wire-level crash-safety soak: run a 2-partition campaign whose
/// shards push through seeded fault-injecting connections
/// ([`wire::chaos`]) into a `--state-dir` collectord child that is
/// SIGKILLed and restarted `--chaos-kills` times mid-campaign plus once
/// more after completion, so the final `/snapshot` comes purely from
/// journal recovery. Shard 0's pushes drive the mid-campaign kills: at
/// each threshold its push waits until the daemon is back, so every kill
/// lands before shard 0's final whatever the host's speed, while shard 1
/// keeps pushing into the outage. Exits
/// non-zero unless that snapshot is byte-identical to the
/// single-process `fleet.json`.
fn run_chaos(opts: &Options) -> ! {
    let spec = fleet::CampaignSpec::heterogeneous(opts.seed, opts.fleet_devices);
    let workers = opts
        .fleet_workers
        .unwrap_or_else(fleet::available_parallelism);
    let state_dir = opts
        .state_dir
        .clone()
        .unwrap_or_else(|| opts.out.join("chaos-state"));
    let _ = std::fs::remove_dir_all(&state_dir);

    info!(
        "chaos: computing the expected single-process report ({} devices) ...",
        spec.devices
    );
    let (expected_report, _) = fleet::run_campaign(&spec, workers);
    let expected = expected_report.to_json().to_string_pretty();
    write_raw(&opts.out, "fleet.json", expected.clone());

    let exe = std::env::current_exe().expect("current_exe");
    let spawn_daemon = || {
        std::process::Command::new(&exe)
            .args([
                "collectord",
                "--seed",
                &opts.seed.to_string(),
                "--fleet-devices",
                &opts.fleet_devices.to_string(),
                "--listen",
                &opts.listen,
                "--http",
                &opts.http,
                "--state-dir",
                state_dir.to_str().expect("utf-8 state dir"),
                "--quiet",
            ])
            .spawn()
            .unwrap_or_else(|e| die(&format!("chaos: spawning the daemon failed: {e}")))
    };
    let wait_healthy = || {
        for _ in 0..100 {
            if http_get(&opts.http, "/healthz").is_some_and(|b| b.starts_with("ok")) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        die("chaos: daemon did not become healthy within 10 s");
    };
    let mut child = spawn_daemon();
    wait_healthy();
    info!(
        "chaos: daemon up (pid {}); starting 2 shard partitions with seeded wire faults ...",
        child.id()
    );

    // Shard threads: each runs its half of the campaign and pushes
    // cumulative state through a resilient client whose connections are
    // severed by seeded write-side resets — every connection dies after
    // a few KB, so reconnect/resend is exercised constantly, on top of
    // the daemon kills. Shard 0 asks for kill `j` once its pushed
    // devices cross slice·j/(kills+1), sending its push size and a
    // channel that answers once the restarted daemon is healthy.
    let kills = opts.chaos_kills as u64;
    let (kill_tx, kill_rx) = std::sync::mpsc::channel::<(u64, std::sync::mpsc::Sender<()>)>();
    let shards: Vec<_> = (0..2u64)
        .map(|i| {
            let kill_tx = (i == 0).then(|| kill_tx.clone());
            let (start, end) = fleet::partition_range(spec.devices, i, 2);
            let next_kill = std::sync::atomic::AtomicU64::new(1);
            let spec = spec.clone();
            let addr = opts.listen.clone();
            let push_every = opts.push_every;
            let chaos_seed = opts.chaos_seed;
            std::thread::spawn(move || {
                let shard = format!("{i}/2");
                let policy = collectord::RetryPolicy {
                    base: std::time::Duration::from_millis(50),
                    cap: std::time::Duration::from_millis(800),
                    max_attempts: 3,
                    // The final push must outlast a daemon restart; a
                    // mid-run push can afford to be dropped instead.
                    max_final_attempts: 100,
                    seed: chaos_seed ^ i,
                };
                // Cut each connection only after it could have carried
                // at least one full cumulative state frame (roughly
                // 1 KB/device): resets then land between or inside
                // *later* pushes, so reconnect/resend is exercised
                // constantly but delivery always stays possible.
                let min_cut = 4096 + spec.devices * 1024;
                let client = collectord::ResilientPushClient::new(&addr, &shard, policy)
                    .with_chaos(chaos_seed.wrapping_add(i * 1000), min_cut, min_cut);
                let client = std::sync::Arc::new(std::sync::Mutex::new(client));
                let cb = client.clone();
                let run_opts = fleet::RunOptions {
                    progress: Some(fleet::ProgressSink {
                        every: push_every,
                        f: std::sync::Arc::new(move |collector, done| {
                            if done {
                                return;
                            }
                            // Dropped is fine (degraded mode); only a
                            // non-retryable rejection fails the soak.
                            if let Err(e) = cb.lock().unwrap().push(collector, false) {
                                panic!("chaos shard: non-retryable rejection: {e}");
                            }
                            let Some(kill) = &kill_tx else { return };
                            let at = collector.devices_seen();
                            let crossed =
                                |j: u64| j <= kills && at >= (end - start) * j / (kills + 1);
                            while crossed(next_kill.load(std::sync::atomic::Ordering::Relaxed)) {
                                next_kill.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                let (restarted, healthy) = std::sync::mpsc::channel();
                                kill.send((at, restarted))
                                    .expect("the kill loop runs until shard 0 ends");
                                let _ = healthy.recv();
                            }
                        }),
                    }),
                    ..fleet::RunOptions::default()
                };
                let (collector, _) = fleet::run_partition_opts(&spec, 1, i, 2, &run_opts);
                match client.lock().unwrap().push(&collector, true) {
                    Ok(collectord::Delivery::Delivered(_)) => {}
                    Ok(collectord::Delivery::Dropped { .. }) => {
                        unreachable!("final pushes never drop")
                    }
                    Err(e) => panic!("chaos shard {shard}: final push failed: {e}"),
                }
                let stats = client.lock().unwrap().stats();
                stats
            })
        })
        .collect();

    // Kill schedule: SIGKILL + restart whenever shard 0 asks, until its
    // thread (the last sender) ends.
    drop(kill_tx);
    let mut cycles = 0u64;
    for (at, restarted) in kill_rx {
        cycles += 1;
        info!(
            "chaos: kill #{cycles}/{kills} after shard 0 pushed {at} devices — SIGKILL + restart"
        );
        let _ = child.kill();
        let _ = child.wait();
        child = spawn_daemon();
        wait_healthy();
        let _ = restarted.send(());
    }
    let mut stats = Vec::new();
    for h in shards {
        match h.join() {
            Ok(s) => stats.push(s),
            Err(_) => die("chaos: a shard thread failed (see panic above)"),
        }
    }

    // One more kill *after* completion: the verified snapshot must come
    // purely from journal recovery, with no shard left to re-push.
    info!("chaos: campaign pushed; final SIGKILL + restart to verify pure-journal recovery ...");
    let _ = child.kill();
    let _ = child.wait();
    child = spawn_daemon();
    wait_healthy();
    let status = http_get(&opts.http, "/status")
        .and_then(|b| obs::Json::parse(&b).ok())
        .unwrap_or_else(|| die("chaos: /status unreachable after the final restart"));
    let complete = matches!(status.get("complete"), Some(obs::Json::Bool(true)));
    let recovered = status
        .get("recovery")
        .and_then(|r| r.get("merged_devices"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0) as u64;
    let snapshot = http_get(&opts.http, "/snapshot")
        .unwrap_or_else(|| die("chaos: /snapshot unreachable after the final restart"));
    write_raw(&opts.out, "chaos_snapshot.json", snapshot.clone());
    let _ = child.kill();
    let _ = child.wait();

    for (i, s) in stats.iter().enumerate() {
        println!(
            "chaos: shard {i}/2: {} pushes delivered, {} dropped (degraded), {} reconnects",
            s.delivered, s.dropped, s.reconnects
        );
    }
    // The mid-run kills that fired (none when shard 0 pushes nothing
    // before its final) plus the final one.
    println!(
        "chaos: {} kill/restart cycles; final recovery restored {recovered} merged devices",
        cycles + 1
    );
    if !complete {
        error!("chaos: recovered daemon does not report a complete campaign");
        std::process::exit(1);
    }
    if snapshot != expected {
        error!(
            "chaos: recovered /snapshot differs from the single-process fleet.json \
             (saved as {})",
            opts.out.join("chaos_snapshot.json").display()
        );
        std::process::exit(1);
    }
    println!("chaos: recovered /snapshot is byte-identical to the single-process fleet.json.");
    std::process::exit(0);
}

/// Profiled/unprofiled campaign pairs behind `repro profile`'s
/// overhead ratio.
const OVERHEAD_PAIRS: usize = 7;
/// The most a profiled campaign may cost, as a multiple of the same
/// campaign unprofiled.
const MAX_PROFILER_OVERHEAD: f64 = 1.3;

/// Run a self-profiled fleet campaign and report where the engine's
/// wall-clock time and allocations went. Exits non-zero when less than
/// 95% of the thread-time budget lands in named phases — the
/// profiler's own accounting has to stay honest before its numbers
/// mean anything — or when profiling makes the campaign more than
/// [`MAX_PROFILER_OVERHEAD`] times slower: the median ratio of
/// [`OVERHEAD_PAIRS`] profiled/unprofiled pairs, alternating which side
/// runs first so drift in host speed hits both.
fn run_profile(opts: &Options) {
    let workers = opts
        .fleet_workers
        .unwrap_or_else(fleet::available_parallelism);
    let spec = fleet::CampaignSpec::heterogeneous(opts.seed, opts.fleet_devices);
    info!(
        "profiling fleet campaign: {} devices × {} probes on {workers} workers, \
         {OVERHEAD_PAIRS} profiled/unprofiled pairs ...",
        spec.devices, spec.probes_per_device
    );
    let run = |profiler: obs::Profiler| {
        let run_opts = fleet::RunOptions {
            profiler,
            ..fleet::RunOptions::default()
        };
        let (report, stats) = fleet::run_campaign_opts(&spec, workers, &run_opts);
        assert!(report.is_some(), "no halt hook configured");
        stats
    };
    let mut ratios = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut profiled = None;
    for pair in 0..OVERHEAD_PAIRS {
        let unprofiled = || run(obs::Profiler::disabled()).wall.as_secs_f64();
        // Odd pairs run the unprofiled side first.
        let early = (pair % 2 == 1).then(unprofiled);
        let stats = run(obs::Profiler::new());
        let off = early.unwrap_or_else(unprofiled);
        let on = stats.wall.as_secs_f64();
        info!("profile: pair {pair}: profiled {on:.3} s, unprofiled {off:.3} s");
        ratios.push(on / off);
        profiled = Some(stats);
    }
    ratios.sort_by(f64::total_cmp);
    let overhead = ratios[OVERHEAD_PAIRS / 2];
    let mut stats = profiled.expect("at least one pair ran");
    let profile = stats.profile.take().expect("profiler was enabled");
    println!("\n{}", profile.render());
    println!(
        "throughput: {:.1} devices/s on {} workers ({:.2} s wall)",
        stats.devices_per_sec(),
        stats.workers,
        stats.wall.as_secs_f64(),
    );
    write_json(&opts.out, "profile", &profile);
    write_raw(&opts.out, "profile.folded", profile.folded());
    write_raw(
        &opts.out,
        "profile_trace.json",
        profile.chrome_trace().to_string_pretty(),
    );
    let frac = profile.attributed_fraction();
    if frac < 0.95 {
        error!(
            "profile: only {:.1}% of the thread-time budget attributed \
             (need >= 95%) — the profiler is losing time somewhere",
            100.0 * frac
        );
        std::process::exit(1);
    }
    println!(
        "profile: {:.1}% of the thread-time budget attributed.",
        100.0 * frac
    );
    println!("profiler overhead: {overhead:.2}× (median of {OVERHEAD_PAIRS} alternating pairs)");
    if overhead > MAX_PROFILER_OVERHEAD {
        error!(
            "profile: profiling made the campaign {overhead:.2}× slower \
             (allowed <= {MAX_PROFILER_OVERHEAD}×)"
        );
        std::process::exit(1);
    }
}

/// Read a `BENCH_*.json` snapshot into `(name, p50_ns)` pairs.
fn read_bench(path: &Path) -> Vec<(String, f64)> {
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("bench-gate {}: {e}", path.display())));
    let json = obs::Json::parse(&body)
        .unwrap_or_else(|e| die(&format!("bench-gate {}: {e}", path.display())));
    let obs::Json::Arr(rows) = json else {
        die(&format!(
            "bench-gate {}: expected a JSON array of bench results",
            path.display()
        ));
    };
    rows.iter()
        .filter_map(|r| {
            let name = r.get("name")?.as_str()?.to_string();
            let p50 = r.get("p50_ns")?.as_f64()?;
            Some((name, p50))
        })
        .collect()
}

/// Compare candidate bench medians against the committed baseline. The
/// `obs_tracer_*`, `obs_prof_*`, `simcore_queue_push_pop`,
/// `simcore_dispatch_*`, and `netem_crosstraffic_*` scenarios gate
/// (they are tight, allocation-free inner loops whose cost is what the
/// tracer, profiler, scheduler, and dispatch budgets promised);
/// everything else is reported informationally — full experiments vary
/// too much across machines to gate on.
///
/// Rows whose name ends in `_allocs` are not timings but absolute
/// allocation counts (see bench-snapshot); every one gates, without
/// the factor: any candidate above its baseline fails. With a committed
/// baseline of zero, a single steady-state allocation on the dispatch
/// or batched cross-traffic hot path, or in a rerun on a reset sim, is
/// a gate failure.
fn run_bench_gate(opts: &Options) {
    let candidate_path = opts.bench_candidate.clone().unwrap_or_else(|| {
        die("bench-gate needs --bench-candidate FILE (from a bench-snapshot run)")
    });
    let baseline = read_bench(&opts.bench_baseline);
    let candidate = read_bench(&candidate_path);
    info!(
        "bench-gate: {} vs baseline {} (factor {}x on obs_tracer_* / obs_prof_* / \
         simcore_queue_push_pop / simcore_dispatch_* / netem_crosstraffic_*; \
         *_allocs rows gate absolutely)",
        candidate_path.display(),
        opts.bench_baseline.display(),
        opts.bench_factor
    );
    println!(
        "\n{:<28} {:>14} {:>14} {:>8}  gate",
        "scenario", "baseline p50", "candidate p50", "ratio"
    );
    let mut regressed = Vec::new();
    for (name, base_p50) in &baseline {
        let Some((_, cand_p50)) = candidate.iter().find(|(n, _)| n == name) else {
            regressed.push(format!("scenario `{name}` missing from candidate"));
            continue;
        };
        let ratio = if *base_p50 > 0.0 {
            cand_p50 / base_p50
        } else {
            1.0
        };
        let gated = name.starts_with("obs_tracer_")
            || name.starts_with("obs_prof_")
            || name == "simcore_queue_push_pop"
            || name.starts_with("simcore_dispatch_")
            || name.starts_with("netem_crosstraffic_")
            || name.ends_with("_allocs");
        // `_allocs` rows are absolute counters, not timings: no factor.
        let fails = if name.ends_with("_allocs") {
            gated && cand_p50 > base_p50
        } else {
            gated && ratio > opts.bench_factor
        };
        println!(
            "{:<28} {:>12.0}ns {:>12.0}ns {:>7.2}x  {}",
            name,
            base_p50,
            cand_p50,
            ratio,
            match (gated, fails) {
                (false, _) => "info",
                (true, false) => "ok",
                (true, true) => "FAIL",
            }
        );
        if fails {
            if name.ends_with("_allocs") {
                regressed.push(format!(
                    "`{name}` counted {cand_p50:.0} steady-state allocations vs \
                     baseline {base_p50:.0} (absolute gate: any increase fails)"
                ));
            } else {
                regressed.push(format!(
                    "`{name}` p50 {cand_p50:.0} ns vs baseline {base_p50:.0} ns \
                     ({ratio:.2}x > {}x budget)",
                    opts.bench_factor
                ));
            }
        }
    }
    if !regressed.is_empty() {
        for r in &regressed {
            error!("bench-gate: {r}");
        }
        std::process::exit(1);
    }
    println!("\nbench-gate: tracer, profiler, scheduler, and dispatch budgets hold.");
}

fn main() {
    let opts = parse_args();
    let wants = |name: &str| opts.experiments.iter().any(|e| e == name || e == "all");

    if opts.experiments.iter().any(|e| e == "collectord") {
        run_collectord(&opts);
    }
    if opts.experiments.iter().any(|e| e == "chaos") {
        run_chaos(&opts);
    }
    if wants("table1") {
        let t = table1::run();
        println!("\n{}", t.render());
        write_json(&opts.out, "table1", &t);
    }
    // Table 2 and Fig. 3 come from the same ping matrix: run it once.
    if wants("table2") || wants("fig3") {
        info!("running ping matrix (Table 2 + Fig 3), k={} ...", opts.k);
        let m = ping_matrix::run(opts.k, opts.seed);
        if wants("table2") {
            println!("\n{}", m.render_table2());
        }
        if wants("fig3") {
            println!("\n{}", m.render_fig3());
        }
        write_json(&opts.out, "ping_matrix", &m);
    }
    if wants("table3") {
        info!("running Table 3, k={} ...", opts.k);
        let t = table3::run(opts.k, opts.seed);
        println!("\n{}", t.render());
        write_json(&opts.out, "table3", &t);
    }
    if wants("table4") {
        info!("running Table 4 ...");
        let t = table4::run(12, opts.seed);
        println!("\n{}", t.render());
        write_json(&opts.out, "table4", &t);
    }
    if wants("table5") {
        info!("running Table 5, k={} ...", opts.k);
        let t = table5::run(opts.k, opts.seed);
        println!("\n{}", t.render());
        write_json(&opts.out, "table5", &t);
    }
    if wants("fig7") {
        info!("running Fig 7, k={} ...", opts.k);
        let f = fig7::run(opts.k, opts.seed);
        println!("\n{}", f.render());
        write_json(&opts.out, "fig7", &f);
    }
    if wants("fig8") {
        info!("running Fig 8, k={} ...", opts.k);
        let f = fig8::run(opts.k, opts.seed);
        println!("\n{}", f.render());
        write_json(&opts.out, "fig8", &f);
    }
    if wants("fig9") {
        info!("running Fig 9, k={} ...", opts.k);
        let f = fig9::run(opts.k, opts.seed);
        println!("\n{}", f.render());
        write_json(&opts.out, "fig9", &f);
    }
    if wants("seeds") {
        info!("running seed sweep ...");
        let s = seeds::run(20, opts.k.min(50));
        println!("\n{}", s.render());
        write_json(&opts.out, "seed_sweep", &s);
    }
    if wants("ablations") {
        info!("running ablations ...");
        let db = ablations::db_sweep(opts.k.min(50), opts.seed);
        println!(
            "\n{}",
            ablations::render("Ablation: db sweep (Nexus 4, 50 ms path)", &db)
        );
        write_json(&opts.out, "ablate_db", &db);
        let ttl = ablations::ttl_ablation(opts.k.min(50), opts.seed);
        println!(
            "{}",
            ablations::render("Ablation: warm-up TTL (Nexus 5, 85 ms path)", &ttl)
        );
        write_json(&opts.out, "ablate_ttl", &ttl);
        let p2 = ablations::ping2_comparison(opts.k.min(30), opts.seed);
        println!("{}", ablations::render("Ablation: ping2 vs AcuteMon", &p2));
        write_json(&opts.out, "ablate_ping2", &p2);
        let sp = ablations::static_psm(opts.k.min(40), opts.seed);
        println!(
            "{}",
            ablations::render(
                "Ablation: static vs adaptive PSM (Nexus 4, 30 ms path)",
                &sp
            )
        );
        write_json(&opts.out, "ablate_static_psm", &sp);
        let li = ablations::listen_interval_sweep(8, opts.seed);
        println!(
            "{}",
            ablations::render("Ablation: listen-interval sweep (Nexus 5)", &li)
        );
        write_json(&opts.out, "ablate_listen_interval", &li);
        let fer = ablations::fer_robustness(opts.k.min(60), opts.seed);
        println!(
            "{}",
            ablations::render("Fault injection: WiFi frame errors (Nexus 5, 50 ms)", &fer)
        );
        write_json(&opts.out, "ablate_fer", &fer);
        let up = ablations::uapsd(opts.k.min(40), opts.seed);
        println!(
            "{}",
            ablations::render("Ablation: legacy PSM vs U-APSD (Nexus 4, 60 ms path)", &up)
        );
        write_json(&opts.out, "ablate_uapsd", &up);
        let loss = ablations::loss_robustness(opts.k.min(60), opts.seed);
        println!(
            "{}",
            ablations::render("Fault injection: lossy path (Nexus 5, 50 ms)", &loss)
        );
        write_json(&opts.out, "ablate_loss", &loss);
        let energy = ablations::energy_cost(opts.k.min(50), opts.seed);
        println!(
            "{}",
            ablations::render("Extension: energy/path cost (Nexus 5, 50 ms path)", &energy)
        );
        write_json(&opts.out, "ablate_energy", &energy);
        let cell = ablations::cellular(opts.k.min(30), opts.seed);
        println!(
            "{}",
            ablations::render("Extension: cellular RRC (LTE/UMTS, 40 ms core path)", &cell)
        );
        write_json(&opts.out, "ablate_cellular", &cell);
    }
    if wants("faults") {
        info!("running fault sweep (loss × burstiness), k={} ...", opts.k);
        let f = faults::run(opts.k.min(40), opts.seed);
        println!("\n{}", f.render());
        write_json(&opts.out, "faults", &f);
    }
    if wants("telemetry") {
        for (label, tool) in [
            ("slow ping", telemetry::TelemetryTool::SlowPing),
            ("acutemon", telemetry::TelemetryTool::AcuteMon),
        ] {
            info!("running instrumented {label} session, 300 ms path ...");
            let snap = telemetry::run(tool, opts.k.min(30), opts.seed, 300).snapshot;
            let slug = label.replace(' ', "_");
            println!("\nTelemetry snapshot ({label}, Nexus 5, 300 ms path):");
            if opts.metrics_json {
                print!("{}", obs::export::json_lines(&snap));
            } else {
                print!("{}", obs::export::prometheus(&snap));
            }
            write_raw(
                &opts.out,
                &format!("telemetry_{slug}.jsonl"),
                obs::export::json_lines(&snap),
            );
        }
    }
    if wants("waterfall") {
        let k = opts.k.min(20);
        info!("running traced slow-ping session, k={k}, 300 ms path ...");
        let tracer = Tracer::new();
        let r = waterfall::run(k, opts.seed, 300, &tracer);
        let report = r.render(60);
        // Show the first few probes; the full report goes to a file.
        let shown: Vec<&str> = report.split("\n\n").take(3).collect();
        println!(
            "\nPer-probe waterfalls (slow ping, Nexus 5, 300 ms path; \
             first {} of {} probes):\n",
            shown.len(),
            r.waterfalls.len()
        );
        println!("{}", shown.join("\n\n"));
        write_raw(&opts.out, "waterfall.txt", report);
        let chrome = obs::export::chrome_trace(&r.spans).to_string_pretty();
        let lines = obs::export::span_json_lines(&r.spans);
        write_raw(&opts.out, "waterfall_trace.json", chrome.clone());
        write_raw(&opts.out, "waterfall_spans.jsonl", lines.clone());
        if let Some(p) = &opts.trace_out {
            std::fs::write(p, chrome).expect("write --trace-out");
            info!("[saved {}]", p.display());
        }
        if let Some(p) = &opts.trace_spans {
            std::fs::write(p, lines).expect("write --trace-spans");
            info!("[saved {}]", p.display());
        }
    }
    // Explicit-only: a 10k-device campaign is deliberately big for the
    // default `all` bundle, but CI runs a scaled-down one.
    if opts.experiments.iter().any(|e| e == "fleet") {
        let workers = opts
            .fleet_workers
            .unwrap_or_else(fleet::available_parallelism);
        let spec = fleet::CampaignSpec::heterogeneous(opts.seed, opts.fleet_devices);
        let run_opts = fleet::RunOptions {
            checkpoint: opts.checkpoint.clone().map(|path| fleet::CheckpointPolicy {
                path,
                every: opts.checkpoint_every,
            }),
            halt_after_devices: opts.fleet_halt_after,
            ..fleet::RunOptions::default()
        };

        if opts.partition.is_some() || opts.push_to.is_some() {
            // One contiguous device slice (all of them for a plain
            // --push-to run); the partial merges back into the
            // single-process report via `repro fleet-merge` or streams
            // into a collectord daemon.
            run_fleet_partition(&opts, &spec, workers);
        } else {
            info!(
                "running fleet campaign: {} devices × {} probes on {workers} workers ...",
                spec.devices, spec.probes_per_device
            );
            let (report, stats) = match &opts.resume {
                Some(path) => {
                    let body = std::fs::read_to_string(path)
                        .unwrap_or_else(|e| die(&format!("--resume {}: {e}", path.display())));
                    let state = obs::Json::parse(&body)
                        .unwrap_or_else(|e| die(&format!("--resume {}: {e}", path.display())));
                    info!("resuming from checkpoint {} ...", path.display());
                    fleet::resume_campaign(&spec, workers, &state, &run_opts)
                        .unwrap_or_else(|e| die(&e.to_string()))
                }
                None => fleet::run_campaign_opts(&spec, workers, &run_opts),
            };
            let Some(report) = report else {
                // The --fleet-halt-after hook fired: behave like a kill.
                println!(
                    "fleet: halted after {} devices (simulated kill){}",
                    stats.devices,
                    match &opts.checkpoint {
                        Some(p) => format!("; resume with --resume {}", p.display()),
                        None => String::new(),
                    }
                );
                std::process::exit(0);
            };
            println!("\n{}", report.render());
            println!(
                "throughput: {:.1} devices/s, {:.1} probes/s on {} workers \
                 ({:.2} s wall)",
                stats.devices_per_sec(),
                stats.probes_per_sec(),
                stats.workers,
                stats.wall.as_secs_f64(),
            );
            write_json(&opts.out, "fleet", &report);
            // Worker scaling on a sub-campaign: same population law,
            // fewer devices, so the table costs a fraction of the main
            // run. Skipped on resumed runs — the table re-runs the
            // whole sub-campaign anyway, so a resume benchmark would
            // measure nothing new.
            if opts.resume.is_none() {
                let sub = fleet::CampaignSpec::heterogeneous(
                    opts.seed,
                    (opts.fleet_devices / 12).max(48),
                );
                info!(
                    "running worker-scaling table ({} devices per row) ...",
                    sub.devices
                );
                let rows = fleet::scaling_table(&sub, &[1, 2, 4, 8]);
                println!("\nWorker scaling ({} devices per row):", sub.devices);
                println!("{}", fleet::render_scaling(&rows));
                if rows.iter().any(|r| !r.json_identical) {
                    error!("fleet: merged JSON diverged across worker counts");
                    std::process::exit(1);
                }
                // A speedup sanity check only means something when the
                // host actually has the cores: single-core CI runners
                // legitimately print ~1.0x across the board. With >= 4
                // cores, a 4-worker run that is no faster than 1 worker
                // means the engine serialised somewhere — fail loudly.
                let cores = fleet::available_parallelism();
                if cores >= 4 {
                    if let Some(r4) = rows.iter().find(|r| r.workers == 4) {
                        if r4.speedup <= 1.0 {
                            error!(
                                "fleet: 4-worker speedup {:.2}x on a {cores}-core host \
                                 (expected > 1x)",
                                r4.speedup
                            );
                            std::process::exit(1);
                        }
                    }
                } else {
                    info!("fleet: speedup check skipped ({cores} core(s) available)");
                }
            }
        }
    }
    // Explicit-only like fleet: a profiled campaign is the same size.
    if opts.experiments.iter().any(|e| e == "profile") {
        run_profile(&opts);
    }
    if opts.experiments.iter().any(|e| e == "fleet-merge") {
        if opts.merge_inputs.is_empty() {
            die("fleet-merge needs at least one partial-report path");
        }
        let spec = fleet::CampaignSpec::heterogeneous(opts.seed, opts.fleet_devices);
        let mut parts = Vec::with_capacity(opts.merge_inputs.len());
        for p in &opts.merge_inputs {
            let body = std::fs::read_to_string(p)
                .unwrap_or_else(|e| die(&format!("fleet-merge {}: {e}", p.display())));
            let json = obs::Json::parse(&body)
                .unwrap_or_else(|e| die(&format!("fleet-merge {}: {e}", p.display())));
            parts.push(json);
        }
        info!(
            "merging {} partial reports into a {}-device campaign ...",
            parts.len(),
            spec.devices
        );
        let report = fleet::merge_partials(&spec, &parts).unwrap_or_else(|e| die(&e.to_string()));
        println!("\n{}", report.render());
        write_json(&opts.out, "fleet", &report);
    }
    // Explicit-only: a timing smoke run is too machine-dependent for the
    // default `all` bundle, but CI runs it to catch harness bit-rot.
    if opts.experiments.iter().any(|e| e == "bench-snapshot") {
        use am_stats::bench::{Harness, BENCH_K, BENCH_SEED};
        info!("running bench snapshot (reduced budget) ...");
        let mut h =
            Harness::new("repro bench-snapshot").with_budget(std::time::Duration::from_millis(150));
        h.bench("ping_matrix", || ping_matrix::run(BENCH_K, BENCH_SEED));
        h.bench("table3", || table3::run(BENCH_K, BENCH_SEED));
        h.bench("table5", || table5::run(BENCH_K, BENCH_SEED));
        h.bench("telemetry_slow_ping", || {
            telemetry::run(telemetry::TelemetryTool::SlowPing, BENCH_K, BENCH_SEED, 300)
        });
        h.bench("waterfall", || {
            waterfall::run(BENCH_K, BENCH_SEED, 300, &Tracer::new())
        });
        h.bench("fleet_campaign_8dev", || {
            let spec = fleet::CampaignSpec::heterogeneous(BENCH_SEED, 8).with_probes(2);
            fleet::run_campaign(&spec, 2)
        });
        // The scheduler's raw push/pop cost: bursts of 64 timers with
        // mixed offsets, fully drained each iteration, at a base time
        // that advances monotonically across iterations.
        {
            let mut q: simcore::sched::HeapQueue<u64> = simcore::sched::HeapQueue::new();
            let mut base = 0u64;
            h.bench("simcore_queue_push_pop", || {
                let mut acc = 0u64;
                for i in 0..64u64 {
                    q.push(
                        simcore::SimTime::from_nanos(base + i * 3_000 + (i % 7) * 11),
                        i,
                    );
                }
                while let Some((t, v)) = q.pop() {
                    acc ^= t.as_nanos().wrapping_add(v);
                }
                base += 64 * 3_000;
                acc
            });
        }
        // The dispatch hot path through the public engine API: one
        // `Sim::step()` per iteration on a warmed ping-pong + timer-churn
        // sim (the `simcore/tests/zero_alloc.rs` workload). Each
        // scenario gets a companion `_allocs` row: the literal
        // allocation count over 10 000 steady-state events, stored in
        // the ns fields of a pseudo-result. Those rows gate absolutely —
        // any increase over the committed baseline (zero) fails the
        // bench gate, which is what keeps the arena discipline honest
        // between the zero-alloc test and production binaries. The
        // `simcore_reset_rerun_allocs` row counts, the same way, a
        // whole second run of the warm-up on the reset sim (nodes
        // boxed beforehand): a reset keeps what the first run grew.
        let mut alloc_rows: Vec<am_stats::bench::BenchResult> = Vec::new();
        {
            #[derive(Default)]
            struct Pinger {
                peer: Option<simcore::NodeId>,
                timer: Option<simcore::TimerId>,
            }
            impl simcore::Node<u64> for Pinger {
                fn on_message(
                    &mut self,
                    ctx: &mut simcore::Ctx<'_, u64>,
                    from: simcore::NodeId,
                    msg: u64,
                ) {
                    self.peer = Some(from);
                    ctx.send(from, simcore::SimDuration::from_micros(13), msg + 1);
                    if let Some(t) = self.timer.take() {
                        ctx.cancel_timer(t);
                    }
                    self.timer = Some(ctx.set_timer(simcore::SimDuration::from_millis(5), 0));
                }
                fn on_timer(&mut self, ctx: &mut simcore::Ctx<'_, u64>, _tag: u64) {
                    self.timer = None;
                    if let Some(peer) = self.peer {
                        ctx.send(peer, simcore::SimDuration::from_micros(13), 0);
                    }
                }
            }
            // Warm up as the zero-alloc test does, so the heap, the
            // arena and the node state have reached their high-water
            // marks. The alloc windows run *before* the timed bench: the
            // bench's iteration count is wall-time-budgeted and so varies
            // per machine, while the alloc count over a fixed window of
            // a deterministic sim is exactly reproducible.
            let warm_up = |sim: &mut simcore::Sim<u64>, nodes: [Box<Pinger>; 2]| {
                let [a, b] = nodes.map(|node| sim.add_node(node));
                for i in 0..16 {
                    sim.inject(a, b, simcore::SimTime::from_micros(i), 0);
                }
                sim.run_until(simcore::SimTime::from_millis(1_120));
            };
            let mut sim: simcore::Sim<u64> = simcore::Sim::new(BENCH_SEED);
            warm_up(&mut sim, Default::default());
            sim.reset(BENCH_SEED);
            let nodes = Default::default();
            let (a0, _) = obs::prof::thread_alloc_counts();
            warm_up(&mut sim, nodes);
            let (a1, _) = obs::prof::thread_alloc_counts();
            alloc_rows.push(am_stats::bench::BenchResult {
                name: "simcore_reset_rerun_allocs".to_string(),
                iters: sim.events_processed(),
                min_ns: (a1 - a0) as f64,
                p50_ns: (a1 - a0) as f64,
                mean_ns: (a1 - a0) as f64,
            });
            let (a0, _) = obs::prof::thread_alloc_counts();
            for _ in 0..10_000 {
                sim.step();
            }
            let (a1, _) = obs::prof::thread_alloc_counts();
            alloc_rows.push(am_stats::bench::BenchResult {
                name: "simcore_dispatch_event_allocs".to_string(),
                iters: 10_000,
                min_ns: (a1 - a0) as f64,
                p50_ns: (a1 - a0) as f64,
                mean_ns: (a1 - a0) as f64,
            });
            h.bench("simcore_dispatch_event", || sim.step());
        }
        // The batched cross-traffic fast path: one engine event per
        // iteration on a warmed blaster-to-sink sim running the paper's
        // 10 × 2.5 Mbit/s load. Same `_allocs` contract as dispatch.
        {
            struct Sink;
            impl simcore::Node<wire::Msg> for Sink {
                fn on_message(
                    &mut self,
                    _ctx: &mut simcore::Ctx<'_, wire::Msg>,
                    _from: simcore::NodeId,
                    _msg: wire::Msg,
                ) {
                }
            }
            let mut sim: simcore::Sim<wire::Msg> = simcore::Sim::new(BENCH_SEED);
            let sink = sim.add_node(Box::new(Sink));
            let cfg = netem::LoadConfig::paper_cross_traffic(
                wire::Ip::new(10, 0, 0, 2),
                wire::Ip::new(10, 0, 0, 1),
                simcore::SimTime::from_secs(3_600),
            );
            let blaster = Box::new(netem::UdpBlasterNode::new(7, cfg, sink));
            sim.add_node(blaster);
            // One emission period (4.704 ms) already holds the
            // steady in-flight population; a 1 s warm-up leaves a wide
            // margin. The fixed 10 000-step window after it is
            // deterministically allocation-free (and runs before the
            // wall-time-budgeted bench for the same reproducibility
            // reason as above).
            sim.run_until(simcore::SimTime::from_secs(1));
            let (a0, _) = obs::prof::thread_alloc_counts();
            for _ in 0..10_000 {
                sim.step();
            }
            let (a1, _) = obs::prof::thread_alloc_counts();
            alloc_rows.push(am_stats::bench::BenchResult {
                name: "netem_crosstraffic_batch_allocs".to_string(),
                iters: 10_000,
                min_ns: (a1 - a0) as f64,
                p50_ns: (a1 - a0) as f64,
                mean_ns: (a1 - a0) as f64,
            });
            h.bench("netem_crosstraffic_batch", || sim.step());
        }
        // The tracer's enabled-path cost, next to the allocation bounds
        // in crates/obs/tests/noop_alloc.rs: a 3-span probe workload.
        h.bench("obs_tracer_enabled_probe", || {
            let t = Tracer::new();
            let trace = t.begin_trace();
            let root = t.start_span(trace, None, "probe", "app", 0);
            t.span(trace, Some(root), "kernel_tx", "kernel", 0, 10_000);
            t.span(trace, Some(root), "sdio_wake", "driver", 10_000, 200_000);
            t.end_span(root, 1_000_000);
            t.spans().len()
        });
        // The profiler's guard cost: a 3-deep phase chain with the
        // profiler on (interned, timed) and off (one branch per guard).
        // Profilers built outside the closure so the bench measures
        // guards, not setup.
        let prof_on = obs::Profiler::new();
        {
            // Warm the intern table + timeline so the steady state is
            // what gets measured.
            let _a = prof_on.phase("probe");
            let _b = prof_on.phase("des");
            let _c = prof_on.phase("fold");
        }
        h.bench("obs_prof_enabled_phase", || {
            let _a = prof_on.phase("probe");
            let _b = prof_on.phase("des");
            let _c = prof_on.phase("fold");
        });
        let prof_off = obs::Profiler::disabled();
        h.bench("obs_prof_disabled_phase", || {
            let _a = prof_off.phase("probe");
            let _b = prof_off.phase("des");
            let _c = prof_off.phase("fold");
        });
        let mut results = h.results().to_vec();
        results.extend(alloc_rows);
        write_json(&opts.out, "BENCH_2", &results);
        h.finish();
    }
    if opts.experiments.iter().any(|e| e == "bench-gate") {
        run_bench_gate(&opts);
    }
    info!("done.");
}
