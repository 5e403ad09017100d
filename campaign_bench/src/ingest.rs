//! ingest-live: a `collectord` daemon in its own process, fed the
//! cumulative states of a pre-simulated k-shard campaign while
//! `/snapshot` is read at a fixed rate.
//!
//! Each shard pushes its cumulative state every [`PUSH_EVERY`] devices
//! and once more when its range is complete, as `repro fleet --push-to`
//! does by default. Pushes are closed-loop on one connection: the next
//! push is sent when the previous ack arrives. A seeded interleaving of
//! the shards' pushes
//! lands shard 0's final push last, so the other shards' slices sit
//! buffered behind the gap until it arrives. `/snapshot` GETs are
//! open-loop at [`SNAPSHOT_PERIOD`] from a second client thread, one
//! connection per GET (the daemon closes each HTTP connection after
//! its response); each is timed from when it was due. Every epoch
//! starts a fresh daemon, pushes the whole campaign, and checks the
//! final `/snapshot` against the single-process report.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fleet::{splitmix64, CampaignSpec, Collector, DevicePartial, RunOptions};
use obs::{Json, ToJson};
use wire::framing::{read_frame, write_frame};

use crate::fleet_run::{latency_metrics, MIN_LATENCY_SAMPLES};
use crate::outcome::Outcome;
use crate::population::{Workload, INGEST_SHARDS, PUSH_EVERY};
use crate::procfs;
use crate::stats::{median, percentile};

/// Interval between `/snapshot` GETs: 125 per second. This is a stress
/// rate, not a real client's: the repository's only poller, the
/// dashboard, refreshes every 2 s. At 125/s one run gathers the 1,000
/// GETs a tail needs, and renders hold the ingest mutex often enough
/// for pushes to queue behind them.
pub const SNAPSHOT_PERIOD: Duration = Duration::from_millis(8);
/// Daemon epochs per run, at least.
const MIN_EPOCHS: usize = 3;
/// How long a daemon may take to answer its first `/healthz`.
const HEALTHZ_TIMEOUT: Duration = Duration::from_secs(30);
/// A run stops starting epochs after this long even without enough
/// samples, so it ends within the three minutes a run may take.
const RUN_CAP: Duration = Duration::from_secs(130);

/// One pre-encoded push: the frame payload a shard sends.
pub type Frame = Vec<u8>;

/// Cuts a campaign into `k` contiguous shards and records each shard's
/// cumulative pushes exactly as a `--push-to` shard sends them: a
/// non-final push every [`PUSH_EVERY`] devices, and a final one when
/// the shard's range is complete.
pub struct ShardFramer {
    shards: Vec<(u64, u64, Collector)>,
    frames: Vec<Vec<Frame>>,
    /// Per push: milliseconds to serialize the state and encode the
    /// frame document.
    pub encode_ms: Vec<f64>,
}

impl ShardFramer {
    pub fn new(spec: &CampaignSpec, k: u64) -> ShardFramer {
        ShardFramer {
            shards: (0..k)
                .map(|i| {
                    let (start, end) = fleet::partition_range(spec.devices, i, k);
                    (start, end, Collector::new_range(spec, start))
                })
                .collect(),
            frames: vec![Vec::new(); k as usize],
            encode_ms: Vec::new(),
        }
    }

    /// Absorb the next device of its shard, in index order.
    pub fn absorb(&mut self, p: &DevicePartial) {
        let k = self.shards.len() as u64;
        let i = self
            .shards
            .iter()
            .position(|(s, e, _)| (*s..*e).contains(&p.index))
            .expect("device index inside the campaign");
        let (start, end, collector) = &mut self.shards[i];
        collector.absorb(p);
        let done = collector.next_index() - *start;
        let last = collector.next_index() == *end;
        if last || done % PUSH_EVERY == 0 {
            let t = Instant::now();
            let doc =
                collectord::protocol::push_doc(&format!("{i}/{k}"), last, &collector.state_json());
            let payload = doc.to_string().into_bytes();
            self.encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.frames[i].push(payload);
        }
    }

    /// The pushes in arrival order: a seeded interleaving that keeps each
    /// shard's pushes in order and lands shard 0's final push last.
    pub fn into_push_order(self, seed: u64) -> Vec<Frame> {
        let mut queues: Vec<std::collections::VecDeque<Frame>> =
            self.frames.into_iter().map(Into::into).collect();
        let last = queues[0].pop_back().expect("shard 0 has a final push");
        let mut order = Vec::new();
        let mut draw = seed ^ 0x1263_57ED;
        loop {
            let remaining: u64 = queues.iter().map(|q| q.len() as u64).sum();
            if remaining == 0 {
                break;
            }
            draw = splitmix64(draw);
            let mut pick = draw % remaining;
            let q = queues
                .iter_mut()
                .find(|q| {
                    let n = q.len() as u64;
                    if pick < n {
                        true
                    } else {
                        pick -= n;
                        false
                    }
                })
                .expect("pick is below the remaining count");
            order.push(q.pop_front().expect("chosen queue is not empty"));
        }
        order.push(last);
        order
    }
}

/// The pushes of the ingest-live campaign for `seed`, and the
/// single-process report its final `/snapshot` must equal.
pub fn generate(seed: u64) -> (Vec<Frame>, String) {
    let spec = Workload::IngestLive.spec(seed);
    let mut framer = ShardFramer::new(&spec, INGEST_SHARDS);
    for i in 0..spec.devices {
        framer.absorb(&fleet::run_device(&spec, i));
    }
    let (report, _) = fleet::run_campaign_opts(
        &spec,
        Workload::IngestLive.workers(),
        &RunOptions::default(),
    );
    let expected = report
        .expect("a campaign without a halt hook completes")
        .to_json()
        .to_string_pretty();
    (framer.into_push_order(seed), expected)
}

/// The body of a daemon process: serve `workload`'s campaign on two
/// ephemeral loopback ports, print them, and run until standard input
/// closes; then print this process's CPU time and peak memory.
pub fn child_daemon(args: &[String]) -> ! {
    let parsed = (|| Some((Workload::parse(args.first()?)?, args.get(1)?.parse().ok()?)))();
    let Some((workload, seed)) = parsed else {
        eprintln!("campaign-bench child-daemon: bad arguments {args:?}");
        std::process::exit(2);
    };
    let spec = workload.spec(seed);
    let bind = || std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let (ingest, http) = (bind(), bind());
    let port = |l: &std::net::TcpListener| l.local_addr().expect("bound address").port();
    println!("PORTS {} {}", port(&ingest), port(&http));
    let daemon = collectord::Daemon::new(spec);
    let d = daemon.clone();
    std::thread::spawn(move || d.serve_ingest(ingest));
    std::thread::spawn(move || daemon.serve_http(http));
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    let mut doc = Json::object();
    doc.set("cpu_s", procfs::self_cpu_secs());
    doc.set("rss_mb", procfs::self_peak_rss_mb());
    println!("DAEMON {doc}");
    std::process::exit(0);
}

/// A running daemon process.
pub struct DaemonProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub ingest_addr: String,
    pub http_addr: String,
    /// Spawn to first `/healthz` 200, seconds.
    pub setup_s: f64,
}

impl DaemonProc {
    pub fn spawn(workload: Workload, seed: u64) -> Result<DaemonProc, String> {
        let t = Instant::now();
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["child-daemon", workload.name(), &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let mut d = DaemonProc {
            child,
            stdin,
            stdout,
            ingest_addr: String::new(),
            http_addr: String::new(),
            setup_s: 0.0,
        };
        let ports: Vec<&str> = line
            .trim()
            .strip_prefix("PORTS ")
            .unwrap_or("")
            .split(' ')
            .collect();
        let [ingest, http] = ports[..] else {
            d.stop();
            return Err(format!(
                "daemon printed `{}` instead of its ports",
                line.trim()
            ));
        };
        d.ingest_addr = format!("127.0.0.1:{ingest}");
        d.http_addr = format!("127.0.0.1:{http}");
        while http_get(&d.http_addr, "/healthz").map(|(code, _)| code) != Some(200) {
            if t.elapsed() > HEALTHZ_TIMEOUT {
                d.stop();
                return Err("daemon never answered /healthz".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        d.setup_s = t.elapsed().as_secs_f64();
        Ok(d)
    }

    /// Close the daemon's standard input and collect its `(cpu_s,
    /// rss_mb)`, waiting until the process has exited.
    pub fn stop(&mut self) -> Option<(f64, f64)> {
        drop(self.stdin.take());
        let mut out = String::new();
        let _ = self.stdout.read_to_string(&mut out);
        let _ = self.child.wait();
        let doc = Json::parse(out.lines().find_map(|l| l.strip_prefix("DAEMON "))?).ok()?;
        Some((doc.get("cpu_s")?.as_f64()?, doc.get("rss_mb")?.as_f64()?))
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One `GET`: `(status, body)`, or `None` when the connection failed.
pub fn http_get(addr: &str, path: &str) -> Option<(u16, String)> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .ok()?;
    let mut buf = String::new();
    s.read_to_string(&mut buf).ok()?;
    let (head, body) = buf.split_once("\r\n\r\n")?;
    let code = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((code, body.to_string()))
}

/// What the open-loop reader saw.
#[derive(Debug, Default)]
pub struct ReaderLog {
    /// Due time to response, ms, for each GET.
    pub latency_ms: Vec<f64>,
    /// Due time to the GET actually being sent, ms.
    pub late_ms: Vec<f64>,
    pub failed: u64,
}

/// Issue `/snapshot` GETs every [`SNAPSHOT_PERIOD`] until `stop` is set.
fn read_snapshots(addr: &str, stop: &AtomicBool) -> ReaderLog {
    let mut log = ReaderLog::default();
    let start = Instant::now();
    for j in 0u32.. {
        let due = start + SNAPSHOT_PERIOD * j;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        log.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        match http_get(addr, "/snapshot") {
            Some((200, _)) => log.latency_ms.push(due.elapsed().as_secs_f64() * 1e3),
            _ => log.failed += 1,
        }
    }
    log
}

/// One daemon lifetime: every push of the campaign, with or without
/// the reader.
#[derive(Debug, Default)]
pub struct Epoch {
    pub setup_s: f64,
    pub push_ms: Vec<f64>,
    pub pushes_failed: u64,
    pub push_wall_s: f64,
    pub reader: ReaderLog,
    pub daemon_cpu_s: f64,
    pub daemon_rss_mb: f64,
    pub failures: Vec<String>,
}

/// Start a daemon, push `frames` closed-loop on one connection (with the
/// open-loop reader beside them when `with_reader`), check the final
/// `/snapshot` against `expected`, and stop the daemon.
pub fn run_epoch(
    workload: Workload,
    seed: u64,
    frames: &[Frame],
    expected: &str,
    with_reader: bool,
) -> Epoch {
    let mut epoch = Epoch::default();
    let mut daemon = match DaemonProc::spawn(workload, seed) {
        Ok(d) => d,
        Err(e) => {
            epoch.failures.push(e);
            epoch.pushes_failed = frames.len() as u64;
            return epoch;
        }
    };
    epoch.setup_s = daemon.setup_s;
    let stop = Arc::new(AtomicBool::new(false));
    let reader = with_reader.then(|| {
        let (addr, stop) = (daemon.http_addr.clone(), stop.clone());
        std::thread::spawn(move || read_snapshots(&addr, &stop))
    });
    match TcpStream::connect(&daemon.ingest_addr) {
        Ok(mut conn) => {
            let _ = conn.set_nodelay(true);
            let t0 = Instant::now();
            for f in frames {
                let t = Instant::now();
                let reply = write_frame(&mut conn, f).and_then(|()| read_frame(&mut conn));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let status = reply.ok().and_then(|r| {
                    let doc = Json::parse(std::str::from_utf8(&r).ok()?).ok()?;
                    (doc.get("type")?.as_str()? == "ack")
                        .then(|| doc.get("status")?.as_str().map(str::to_string))?
                });
                match status {
                    Some(_) => epoch.push_ms.push(ms),
                    None => epoch.pushes_failed += 1,
                }
            }
            epoch.push_wall_s = t0.elapsed().as_secs_f64();
        }
        Err(e) => {
            epoch
                .failures
                .push(format!("connecting to the ingest port: {e}"));
            epoch.pushes_failed = frames.len() as u64;
        }
    }
    stop.store(true, Ordering::Release);
    if let Some(r) = reader {
        epoch.reader = r.join().expect("reader thread does not panic");
    }
    match http_get(&daemon.http_addr, "/snapshot") {
        Some((200, body)) if body == expected => {}
        Some((200, _)) => epoch
            .failures
            .push("final /snapshot differs from the single-process report".to_string()),
        other => epoch.failures.push(format!(
            "final /snapshot failed: {:?}",
            other.map(|(c, _)| c)
        )),
    }
    match daemon.stop() {
        Some((cpu, rss)) => (epoch.daemon_cpu_s, epoch.daemon_rss_mb) = (cpu, rss),
        None => epoch
            .failures
            .push("daemon did not report its CPU and memory".to_string()),
    }
    epoch
}

/// The untraced ingest-live run.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let (frames, expected) = generate(seed);
    let devices = Workload::IngestLive.spec(seed).devices as f64;
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut epochs: Vec<Epoch> = Vec::new();
    let enough = |epochs: &[Epoch]| {
        let pushes: usize = epochs.iter().map(|e| e.push_ms.len()).sum();
        let gets: usize = epochs.iter().map(|e| e.reader.latency_ms.len()).sum();
        epochs.len() >= MIN_EPOCHS
            && pushes >= MIN_LATENCY_SAMPLES
            && gets >= MIN_LATENCY_SAMPLES
            && start.elapsed() >= budget
    };
    while !enough(&epochs) && start.elapsed() < RUN_CAP {
        epochs.push(run_epoch(
            Workload::IngestLive,
            seed,
            &frames,
            &expected,
            true,
        ));
    }
    let pooled = |f: &dyn Fn(&Epoch) -> &Vec<f64>| -> Vec<f64> {
        epochs.iter().flat_map(|e| f(e).iter().copied()).collect()
    };
    for (i, e) in epochs.iter().enumerate() {
        outcome.attempted +=
            frames.len() as u64 + e.reader.latency_ms.len() as u64 + e.reader.failed + 1;
        outcome.failed += e.pushes_failed + e.reader.failed;
        for f in &e.failures {
            outcome.fail(1, format!("epoch {i}: {f}"));
        }
    }
    let per = |f: &dyn Fn(&Epoch) -> f64| -> Vec<f64> { epochs.iter().map(f).collect() };
    let note = format!("median of {} daemon epochs", epochs.len());
    outcome.metric(
        "devices_per_s",
        median(&per(&|e| devices / e.push_wall_s)),
        "1/s",
        format!("campaign devices ingested per second of pushing, {note}"),
    );
    outcome.metric(
        "cpu_us_per_device",
        median(&per(&|e| e.daemon_cpu_s * 1e6 / devices)),
        "us",
        format!("daemon CPU per ingested device, {note}"),
    );
    latency_metrics(
        &mut outcome,
        "push",
        990,
        &pooled(&|e| &e.push_ms),
        "push sent to ack",
    );
    latency_metrics(
        &mut outcome,
        "snapshot",
        950,
        &pooled(&|e| &e.reader.latency_ms),
        "GET /snapshot from when it was due",
    );
    outcome.metric(
        "peak_rss_mb",
        median(&per(&|e| e.daemon_rss_mb)),
        "MB",
        format!("daemon VmHWM, {note}"),
    );
    outcome.metric(
        "setup_s",
        median(&per(&|e| e.setup_s)),
        "s",
        format!("daemon spawn to first /healthz 200, {note}"),
    );
    let late = pooled(&|e| &e.reader.late_ms);
    outcome.facts.push(format!(
        "reader: {} GETs due every {} ms (a stress rate: the dashboard polls every 2 s); \
         late by p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        late.len(),
        SNAPSHOT_PERIOD.as_millis(),
        percentile(&late, 0.5),
        percentile(&late, 0.99),
        late.iter().copied().fold(0.0, f64::max)
    ));
    let sizes: Vec<f64> = frames.iter().map(|f| f.len() as f64).collect();
    outcome.facts.push(format!(
        "pushes: {} per epoch from {INGEST_SHARDS} shards, one every {PUSH_EVERY} devices, \
         frames {:.0}-{:.0} bytes, shard 0's final last",
        frames.len(),
        percentile(&sizes, 0.0),
        percentile(&sizes, 1.0)
    ));
    outcome
}
