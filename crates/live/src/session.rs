//! The live session: the [`Machine`] driven over real sockets.
//!
//! One thread owns the machine, fires its timers and sends the
//! keep-awake datagrams from one TTL-limited UDP socket. An I/O thread
//! runs each probe's blocking connect or echo, so BT ticks keep firing
//! through a probe's RTT; the RTT is timed around the I/O call there. The
//! call enforces the probe deadline itself (a blocking connect cannot be
//! cancelled), so the machine's `Timeout` arms are dropped and a timed-out
//! call comes back as a send error. `live.send_lateness_ms` records how
//! late each send left: actual minus intended time (its timer's
//! deadline, or the reply that released it).

use std::io;
use std::net::{TcpStream, UdpSocket};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread;
use std::time::{Duration, Instant};

use acutemon::{BtStats, Io, KeepAwake, Machine, MetricNames, Timer};
use measure::ProbeError;
use obs::{Hist, Snapshot, SpanId, TraceId, Tracer};
use simcore::{DetRng, SimDuration, SimTime};

use crate::config::{LiveConfig, LiveProbe};

/// One probe's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveSample {
    /// Probe index.
    pub probe: u32,
    /// RTT in ms, if the probe completed in time.
    pub rtt_ms: Option<f64>,
    /// Send attempts spent on this probe (1 = first try succeeded).
    pub attempts: u32,
    /// Why the probe ultimately failed, if it did.
    pub error: Option<ProbeError>,
}

/// The result of a live run.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Per-probe samples, in probe order.
    pub samples: Vec<LiveSample>,
    /// Keep-awake accounting and BT health.
    pub bt: BtStats,
    /// Wall-clock duration of the measurement phase.
    pub elapsed: Duration,
    /// The session's counts (`live.*`): the machine's probe, retry and
    /// keep-awake counters, its RTT histogram, and
    /// `live.send_lateness_ms`.
    pub counts: Snapshot,
}

impl LiveReport {
    /// Completed RTTs in ms.
    pub fn rtts_ms(&self) -> Vec<f64> {
        self.samples.iter().filter_map(|s| s.rtt_ms).collect()
    }

    /// Completion fraction.
    pub fn completion(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| s.rtt_ms.is_some()).count() as f64
            / self.samples.len() as f64
    }

    /// Mean/CI summary of the completed RTTs.
    pub fn summary(&self) -> Option<am_stats::Summary> {
        am_stats::Summary::of(&self.rtts_ms())
    }

    /// The RTTs as a right-censored sample: lost probes stay in the
    /// denominator instead of silently vanishing from the quantiles.
    pub fn censored(&self) -> am_stats::CensoredSample {
        am_stats::CensoredSample::from_outcomes(self.samples.iter().map(|s| s.rtt_ms))
    }

    /// Total retry attempts beyond the first try, across all probes.
    pub fn total_retries(&self) -> u64 {
        self.samples
            .iter()
            .map(|s| u64::from(s.attempts.saturating_sub(1)))
            .sum()
    }
}

/// One blocking probe attempt, timed around the I/O call itself.
fn probe_once(cfg: &LiveConfig, probe: u32) -> Result<Duration, ProbeError> {
    match cfg.probe {
        LiveProbe::TcpConnect => {
            let t0 = Instant::now();
            match TcpStream::connect_timeout(&cfg.target, cfg.probe_timeout) {
                Ok(stream) => {
                    let rtt = t0.elapsed();
                    drop(stream);
                    Ok(rtt)
                }
                Err(e) if e.kind() == io::ErrorKind::TimedOut => Err(ProbeError::Timeout),
                Err(e) => Err(ProbeError::Connect(e.kind())),
            }
        }
        LiveProbe::UdpEcho => {
            let socket = UdpSocket::bind("0.0.0.0:0").map_err(|e| ProbeError::Bind(e.kind()))?;
            socket
                .set_read_timeout(Some(cfg.probe_timeout))
                .map_err(|e| ProbeError::Bind(e.kind()))?;
            let payload = probe.to_be_bytes();
            let t0 = Instant::now();
            socket
                .send_to(&payload, cfg.target)
                .map_err(|e| ProbeError::Send(e.kind()))?;
            let mut buf = [0u8; 64];
            loop {
                match socket.recv_from(&mut buf) {
                    Ok((n, from)) => {
                        if from == cfg.target && n >= 4 && buf[..4] == payload {
                            return Ok(t0.elapsed());
                        }
                        if t0.elapsed() >= cfg.probe_timeout {
                            return Err(ProbeError::Timeout);
                        }
                        // A stray datagram; keep waiting.
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        return Err(ProbeError::Timeout)
                    }
                    Err(e) => return Err(ProbeError::Recv(e.kind())),
                }
            }
        }
    }
}

/// A probe attempt the I/O thread finished: probe `n`, how late its
/// I/O call started, the call's start and end, and its outcome.
struct Done {
    n: u32,
    lateness: Duration,
    start: Instant,
    end: Instant,
    result: Result<Duration, ProbeError>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The machine's [`Io`] over real sockets, plus the timers its thread
/// fires.
struct Live<'a> {
    cfg: &'a LiveConfig,
    epoch: Instant,
    /// The keep-awake socket (TTL `warmup_ttl`).
    awake: UdpSocket,
    /// Probe attempts for the I/O thread: probe `n`, and when it was due.
    jobs: Sender<(u32, Instant)>,
    timers: Vec<(Instant, Timer)>,
    /// When the input being handled happened, and when it was due.
    now: Instant,
    intended: Instant,
    /// How late each send left its intended time, ms.
    lateness: Hist,
    /// Retry jitter; seeded, so a run shape replays its retry schedule.
    rng: DetRng,
    tracer: &'a Tracer,
    /// The probe being traced: its index, trace and root span.
    trace: Option<(u32, TraceId, SpanId)>,
}

impl Live<'_> {
    fn sim(&self, t: Instant) -> SimTime {
        SimTime::from_nanos(t.saturating_duration_since(self.epoch).as_nanos() as u64)
    }

    /// Record a finished attempt as a leaf under its probe's root span.
    /// We cannot see inside the kernel from userland, so the leaf is the
    /// attempt's whole du.
    fn leaf(&self, done: &Done, attempt: u32) {
        let Some((_, trace, root)) = self.trace else {
            return;
        };
        let name = match self.cfg.probe {
            LiveProbe::TcpConnect => "tcp_connect",
            LiveProbe::UdpEcho => "udp_echo",
        };
        let (start, end) = (
            self.sim(done.start).as_nanos(),
            self.sim(done.end).as_nanos(),
        );
        let leaf = self.tracer.span(trace, Some(root), name, "net", start, end);
        self.tracer.attr(leaf, "attempt", attempt);
        match done.result {
            Ok(rtt) => self.tracer.attr(leaf, "rtt_ms", ms(rtt)),
            Err(e) => {
                self.tracer.attr(leaf, "lost", true);
                self.tracer.attr(leaf, "error", e.label());
            }
        }
    }

    /// Close the traced probe's root span at `end`.
    fn end_trace(&mut self, end: SimTime) {
        if let Some((_, _, root)) = self.trace.take() {
            self.tracer.end_span(root, end.as_nanos());
        }
    }
}

impl Io for Live<'_> {
    fn keep_awake(&mut self, _kind: KeepAwake) -> bool {
        let at = Instant::now();
        let sent = self.awake.send_to(&[0u8; 8], self.cfg.warmup_dst).is_ok();
        self.lateness
            .observe(ms(at.saturating_duration_since(self.intended)));
        sent
    }

    /// Each probe is one span tree: a `probe` root with one
    /// `tcp_connect`/`udp_echo` leaf per attempt, plus the machine's
    /// `retry`/`rewarm` spans. A root ends when the next probe starts
    /// (its predecessor's final attempt releases it) or the run ends.
    fn probe(&mut self, n: u32, _target: u32) -> u64 {
        if self.tracer.is_enabled() && self.trace.map(|t| t.0) != Some(n) {
            let start = self.sim(self.now);
            self.end_trace(start);
            let trace = self.tracer.begin_trace();
            let root = self
                .tracer
                .start_span(trace, None, "probe", "live", start.as_nanos());
            self.tracer.attr(root, "probe", n);
            self.tracer.attr(root, "tool", "acutemon-cli");
            self.trace = Some((n, trace, root));
        }
        // The I/O thread lives until the session drops this sender.
        let _ = self.jobs.send((n, self.intended));
        0
    }

    fn arm(&mut self, timer: Timer, after: SimDuration) {
        if !matches!(timer, Timer::Timeout(_)) {
            let at = self.now + Duration::from_nanos(after.as_nanos());
            self.timers.push((at, timer));
        }
    }

    fn span(
        &mut self,
        name: &'static str,
        _: u64,
        start: SimTime,
        end: SimTime,
        (key, value): (&'static str, u32),
    ) {
        if let Some((_, trace, root)) = self.trace {
            let (start, end) = (start.as_nanos(), end.as_nanos());
            let id = self
                .tracer
                .span(trace, Some(root), name, "fault", start, end);
            self.tracer.attr(id, key, value);
        }
    }

    fn jitter(&mut self) -> f64 {
        self.rng.unit()
    }
}

/// The live session's metric names.
const METRICS: MetricNames = MetricNames {
    sent: "live.probes_sent",
    received: "live.probes_received",
    failed: "live.probe_errors",
    retries: "live.retries",
    rewarms: "live.rewarms",
    rtt_ms: "live.rtt_ms",
    warmup_sent: "live.warmup_sent",
    background_sent: "live.background_sent",
    degraded: Some("live.bt_degraded"),
};

/// Run a complete AcuteMon session over real sockets: warm up, wait
/// `dpre`, fire `K` sequential probes with the BT ticking every `db`.
pub fn run(cfg: LiveConfig) -> io::Result<LiveReport> {
    run_traced(cfg, &Tracer::disabled())
}

/// Like [`run`], recording per-probe spans into `tracer` (wall-clock ns
/// since the session began; pass [`Tracer::disabled`] for a zero-cost
/// no-op). Either way the report carries the session's counts.
pub fn run_traced(cfg: LiveConfig, tracer: &Tracer) -> io::Result<LiveReport> {
    let awake = UdpSocket::bind("0.0.0.0:0")?;
    awake.set_ttl(cfg.warmup_ttl)?;
    let (jobs, job_rx) = channel::<(u32, Instant)>();
    let (done_tx, done) = channel::<Done>();
    let mut machine = Machine::new(cfg.plan());
    thread::scope(|scope| {
        let cfg = &cfg;
        thread::Builder::new()
            .name("acutemon-io".into())
            .spawn_scoped(scope, move || {
                for (n, intended) in job_rx {
                    let start = Instant::now();
                    let result = probe_once(cfg, n);
                    let end = Instant::now();
                    if done_tx
                        .send(Done {
                            n,
                            lateness: start.saturating_duration_since(intended),
                            start,
                            end,
                            result,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
            })?;
        let epoch = Instant::now();
        let mut live = Live {
            cfg,
            epoch,
            awake,
            jobs,
            timers: Vec::new(),
            now: epoch,
            intended: epoch,
            lateness: Hist::default(),
            rng: DetRng::new(0xAC07E),
            tracer,
            trace: None,
        };
        machine.start(&mut live);
        while machine.finished_at().is_none() {
            let next = live
                .timers
                .iter()
                .enumerate()
                .min_by_key(|(_, (at, _))| *at)
                .map(|(i, &(at, _))| (i, at));
            // A finished attempt is handled before a due timer, so a zero
            // `db` cannot starve the probes.
            let msg = match next {
                Some((_, at)) => done.recv_timeout(at.saturating_duration_since(Instant::now())),
                None => done.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match msg {
                Ok(d) => {
                    live.lateness.observe(ms(d.lateness));
                    let attempt = machine.records.get(d.n as usize).map_or(0, |r| r.attempts);
                    live.leaf(&d, attempt);
                    (live.now, live.intended) = (d.end, d.end);
                    let now = live.sim(d.end);
                    match d.result {
                        Ok(rtt) => {
                            let rtt = SimDuration::from_nanos(rtt.as_nanos() as u64);
                            machine.reply(now, d.n, 0, Some(rtt), &mut live);
                        }
                        Err(e) => machine.send_error(now, d.n, e, &mut live),
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let (i, at) = next.expect("recv_timeout only times out with a timer armed");
                    let (_, timer) = live.timers.swap_remove(i);
                    (live.now, live.intended) = (Instant::now(), at);
                    let now = live.sim(live.now);
                    machine.timer(now, timer, &mut live);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::other("probe thread exited"));
                }
            }
        }
        let finished = machine.finished_at().unwrap_or(SimTime::ZERO);
        live.end_trace(finished);
        let mut counts = Snapshot::default();
        machine.export(&METRICS, &mut counts);
        counts.merge_histogram("live.send_lateness_ms", &live.lateness);
        Ok(LiveReport {
            samples: machine
                .records
                .iter()
                .map(|r| LiveSample {
                    probe: r.probe,
                    rtt_ms: r.reported_ms,
                    attempts: r.attempts,
                    error: r.error,
                })
                .collect(),
            bt: machine.bt,
            elapsed: Duration::from_nanos(finished.as_nanos()).saturating_sub(cfg.dpre),
            counts,
        })
        // `live` drops here, closing the job queue: the I/O thread exits
        // and the scope joins it.
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{SocketAddr, TcpListener};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A loopback TCP acceptor that accepts and drops connections.
    fn tcp_server() -> (SocketAddr, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let s2 = Arc::clone(&stop);
        listener.set_nonblocking(true).expect("nonblocking");
        thread::spawn(move || {
            while !s2.load(Ordering::Relaxed) {
                // Drain the whole backlog before napping, or a burst of
                // connects overflows it and SYNs retransmit after 1 s.
                while let Ok((stream, _)) = listener.accept() {
                    drop(stream);
                }
                thread::sleep(Duration::from_micros(200));
            }
        });
        (addr, stop)
    }

    /// A loopback UDP echo server.
    fn udp_echo_server() -> (SocketAddr, Arc<AtomicBool>) {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let addr = socket.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let s2 = Arc::clone(&stop);
        socket
            .set_read_timeout(Some(Duration::from_millis(5)))
            .expect("timeout");
        thread::spawn(move || {
            let mut buf = [0u8; 256];
            while !s2.load(Ordering::Relaxed) {
                if let Ok((n, from)) = socket.recv_from(&mut buf) {
                    let _ = socket.send_to(&buf[..n], from);
                }
            }
        });
        (addr, stop)
    }

    #[test]
    fn tcp_connect_probing_on_loopback() {
        let (addr, stop) = tcp_server();
        // Loopback probes are microseconds, so stretch the session with a
        // large K and a 1 ms db to observe background pacing at all.
        let cfg = LiveConfig::new(addr, 200)
            .with_timing(Duration::from_millis(2), Duration::from_millis(1))
            // Loopback has no gateway: use a TTL that still delivers so
            // the BT socket sees no errors.
            .with_warmup_ttl(8);
        let report = run(cfg).expect("run");
        stop.store(true, Ordering::Relaxed);
        assert_eq!(report.samples.len(), 200);
        assert!(
            report.completion() > 0.9,
            "completion {}",
            report.completion()
        );
        // Sandboxed/proxied environments occasionally add a retransmit-
        // scale outlier to a loopback connect; judge the bulk, not the
        // worst case.
        let mut rtts = report.rtts_ms();
        rtts.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let p90 = rtts[rtts.len() * 9 / 10];
        assert!(p90 < 200.0, "loopback p90 rtt {p90}");
        assert_eq!(report.bt.warmup_sent, 1);
        assert!(report.bt.background_sent > 0);
        assert!(report.summary().is_some());
    }

    #[test]
    fn udp_echo_probing_on_loopback() {
        let (addr, stop) = udp_echo_server();
        let cfg = LiveConfig::new(addr, 8)
            .with_probe(LiveProbe::UdpEcho)
            .with_timing(Duration::from_millis(2), Duration::from_millis(5))
            .with_warmup_ttl(8);
        let report = run(cfg).expect("run");
        stop.store(true, Ordering::Relaxed);
        assert_eq!(report.samples.len(), 8);
        assert!(
            report.completion() > 0.8,
            "completion {}",
            report.completion()
        );
    }

    #[test]
    fn traced_run_emits_one_span_tree_per_probe() {
        let (addr, stop) = tcp_server();
        let cfg = LiveConfig::new(addr, 5)
            .with_timing(Duration::from_millis(2), Duration::from_millis(5))
            .with_warmup_ttl(8);
        let tracer = Tracer::new();
        let report = run_traced(cfg, &tracer).expect("run");
        stop.store(true, Ordering::Relaxed);
        let spans = tracer.spans();
        let traces = tracer.trace_ids();
        assert_eq!(traces.len(), 5, "one trace per probe");
        for (i, trace) in traces.iter().enumerate() {
            let root = obs::build_trace_tree(&spans, *trace).expect("tree");
            assert_eq!(root.span.name, "probe");
            assert_eq!(
                root.span.attr("probe"),
                Some(&obs::AttrValue::Int(i as i64))
            );
            assert_eq!(root.children.len(), 1);
            let leaf = &root.children[0];
            assert_eq!(leaf.span.name, "tcp_connect");
            // The leaf IO interval nests inside the root probe span.
            assert!(leaf.span.start_ns >= root.span.start_ns);
            assert!(leaf.span.end_ns.unwrap() <= root.span.end_ns.unwrap());
            // A completed probe carries its RTT as a span attribute.
            if report.samples[i].rtt_ms.is_some() {
                assert!(leaf.span.attr("rtt_ms").is_some());
            }
        }
    }

    #[test]
    fn without_background_sends_only_warmup() {
        let (addr, stop) = tcp_server();
        let cfg = LiveConfig::new(addr, 3)
            .with_timing(Duration::from_millis(2), Duration::from_millis(5))
            .with_warmup_ttl(8)
            .without_background();
        let report = run(cfg).expect("run");
        stop.store(true, Ordering::Relaxed);
        assert_eq!(report.bt.warmup_sent, 1);
        assert_eq!(report.bt.background_sent, 0);
        assert_eq!(report.samples.len(), 3);
    }

    /// A UDP echo server that drops every other datagram (the first,
    /// third, … are eaten): each probe's first attempt times out and its
    /// retry is answered.
    fn flaky_udp_echo_server() -> (SocketAddr, Arc<AtomicBool>) {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let addr = socket.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let s2 = Arc::clone(&stop);
        socket
            .set_read_timeout(Some(Duration::from_millis(5)))
            .expect("timeout");
        thread::spawn(move || {
            let mut buf = [0u8; 256];
            let mut n_seen = 0u64;
            while !s2.load(Ordering::Relaxed) {
                if let Ok((n, from)) = socket.recv_from(&mut buf) {
                    if n_seen % 2 == 1 {
                        let _ = socket.send_to(&buf[..n], from);
                    }
                    n_seen += 1;
                }
            }
        });
        (addr, stop)
    }

    /// A loopback UDP echo server that answers after `delay` — pins the
    /// per-probe RTT so tests can stretch a session deterministically.
    fn slow_udp_echo_server(delay: Duration) -> (SocketAddr, Arc<AtomicBool>) {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let addr = socket.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let s2 = Arc::clone(&stop);
        socket
            .set_read_timeout(Some(Duration::from_millis(5)))
            .expect("timeout");
        thread::spawn(move || {
            let mut buf = [0u8; 256];
            while !s2.load(Ordering::Relaxed) {
                if let Ok((n, from)) = socket.recv_from(&mut buf) {
                    thread::sleep(delay);
                    let _ = socket.send_to(&buf[..n], from);
                }
            }
        });
        (addr, stop)
    }

    #[test]
    fn retries_recover_probes_through_a_flaky_path() {
        let (addr, stop) = flaky_udp_echo_server();
        let cfg = LiveConfig {
            probe_timeout: Duration::from_millis(60),
            ..LiveConfig::new(addr, 4)
        }
        .with_probe(LiveProbe::UdpEcho)
        .with_timing(Duration::from_millis(2), Duration::from_millis(5))
        .with_warmup_ttl(8)
        .with_retries(2)
        .with_retry_backoff(Duration::from_millis(5));
        let tracer = Tracer::new();
        let report = run_traced(cfg, &tracer).expect("run");
        stop.store(true, Ordering::Relaxed);
        assert_eq!(report.samples.len(), 4);
        assert!(
            (report.completion() - 1.0).abs() < 1e-12,
            "completion {} (attempts {:?})",
            report.completion(),
            report
                .samples
                .iter()
                .map(|s| s.attempts)
                .collect::<Vec<_>>()
        );
        // Every probe needed exactly its one retry, and no error stuck.
        assert!(report.samples.iter().all(|s| s.attempts == 2));
        assert!(report.samples.iter().all(|s| s.error.is_none()));
        assert_eq!(report.total_retries(), 4);
        // The report's counts hold one lateness sample per send: each of
        // the 8 attempts and each keep-awake the machine asked for.
        let (counts, bt) = (&report.counts, &report.bt);
        let keep_awake = bt.warmup_sent + bt.background_sent + bt.rewarms_sent + bt.send_errors;
        let lateness = counts.histogram("live.send_lateness_ms").map(|h| h.count());
        assert_eq!(lateness, Some(8 + keep_awake));
        assert_eq!(counts.counter("live.retries"), Some(4));
        // The recovery is visible: retry + rewarm spans, and two attempt
        // leaves under each probe root.
        let spans = tracer.spans();
        assert_eq!(spans.iter().filter(|s| s.name == "retry").count(), 4);
        assert_eq!(spans.iter().filter(|s| s.name == "rewarm").count(), 4);
        assert_eq!(spans.iter().filter(|s| s.name == "udp_echo").count(), 8);
        // Censored view: nothing censored, quantiles come from all 4.
        let cs = report.censored();
        assert_eq!(cs.censored(), 0);
        assert!(cs.median().is_some());
    }

    #[test]
    fn exhausted_retry_budget_reports_probe_error() {
        // Bind a port, then free it: connects are refused every time, so
        // the budget runs out and the sample carries Exhausted.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let cfg = LiveConfig {
            probe_timeout: Duration::from_millis(50),
            ..LiveConfig::new(addr, 2)
        }
        .with_timing(Duration::from_millis(1), Duration::from_millis(5))
        .with_warmup_ttl(8)
        .with_retries(1)
        .with_retry_backoff(Duration::from_millis(2));
        let report = run(cfg).expect("run");
        assert_eq!(report.completion(), 0.0);
        for s in &report.samples {
            assert_eq!(s.attempts, 2);
            assert_eq!(
                s.error,
                Some(measure::ProbeError::Exhausted { attempts: 2 })
            );
        }
        // All four du values are censored: no quantile is identifiable.
        let cs = report.censored();
        assert_eq!(cs.censored(), 2);
        assert_eq!(cs.quantile(0.1), None);
    }

    #[test]
    fn bt_reports_degraded_after_consecutive_send_errors() {
        // 255.255.255.255 without SO_BROADCAST: every send fails with
        // EACCES, deterministically. The BT must notice the streak, flag
        // itself degraded, and the run must still finish cleanly. A slow
        // echo target stretches the session so the BT gets enough ticks
        // regardless of scheduler load.
        let (addr, stop) = slow_udp_echo_server(Duration::from_millis(20));
        let cfg = LiveConfig {
            warmup_dst: "255.255.255.255:9".parse().expect("addr"),
            probe_timeout: Duration::from_millis(500),
            ..LiveConfig::new(addr, 5)
        }
        .with_probe(LiveProbe::UdpEcho)
        .with_timing(Duration::from_millis(2), Duration::from_millis(1));
        let report = run(cfg).expect("run");
        stop.store(true, Ordering::Relaxed);
        assert!(
            report.bt.send_errors >= 3,
            "errors {}",
            report.bt.send_errors
        );
        assert!(report.bt.degraded);
        assert_eq!(report.bt.background_sent, 0);
        // Probing itself is unaffected by the broken keep-awake path.
        assert!(report.completion() > 0.9);
    }

    #[test]
    fn refused_target_reports_losses_not_hangs() {
        // Bind a port, then free it: connects to it are refused, and the
        // probe must come back as lost quickly (no hang, no panic).
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let cfg = LiveConfig {
            probe_timeout: Duration::from_millis(50),
            ..LiveConfig::new(addr, 3)
        }
        .with_timing(Duration::from_millis(1), Duration::from_millis(5))
        .with_warmup_ttl(8);
        let t0 = Instant::now();
        let report = run(cfg).expect("run");
        assert_eq!(report.completion(), 0.0);
        assert!(t0.elapsed() < Duration::from_secs(3));
    }

    #[test]
    fn background_pacing_roughly_matches_db() {
        let (addr, stop) = tcp_server();
        let cfg = LiveConfig::new(addr, 1)
            .with_timing(Duration::from_millis(2), Duration::from_millis(10))
            .with_warmup_ttl(8);
        // One fast probe: the session lives ~dpre + probe time. To get a
        // stable count, use a UDP-echo target that responds slowly? —
        // instead run with more probes to stretch the session.
        let cfg = LiveConfig { k: 20, ..cfg };
        let t0 = Instant::now();
        let report = run(cfg).expect("run");
        stop.store(true, Ordering::Relaxed);
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        let expected = elapsed_ms / 10.0;
        assert!(
            (report.bt.background_sent as f64) < expected * 2.0 + 6.0,
            "bg={} expected~{expected}",
            report.bt.background_sent
        );
    }
}
