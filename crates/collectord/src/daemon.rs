//! The collector daemon: a push listener (length-prefixed JSON frames)
//! and an HTTP listener (`/`, `/snapshot`, `/status`, `/metrics`,
//! `/healthz`), both thread-per-connection over one shared
//! [`Ingest`].

use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fleet::CampaignSpec;
use obs::{info, warn, Json, Registry};
use wire::framing::{read_frame, write_frame, FrameError};

use crate::dashboard;
use crate::http::{read_request, respond};
use crate::ingest::{Ingest, ShardInfo};
use crate::protocol::{ack_doc, error_doc, parse_push, IngestError, PushOutcome};
use crate::store::{Store, StoreError};

/// Default ingest-connection read/write timeout: generous enough for a
/// slow shard's largest state push, small enough that half-open or
/// stalled connections don't pin daemon threads forever.
pub const DEFAULT_INGEST_TIMEOUT: Duration = Duration::from_secs(60);

struct Inner {
    ingest: Mutex<Ingest>,
    registry: Registry,
    started: Instant,
}

/// A running (or ready-to-run) collector daemon. Cheap to clone; all
/// clones share the same campaign state and metrics registry.
#[derive(Clone)]
pub struct Daemon {
    inner: Arc<Inner>,
    ingest_timeout: Duration,
}

impl Daemon {
    /// A daemon expecting campaign `spec`.
    pub fn new(spec: CampaignSpec) -> Daemon {
        Daemon::from_ingest(Ingest::new(spec))
    }

    /// A daemon journaling to (and recovered from) `store`: whatever
    /// state the journal holds for `spec` is restored before the first
    /// push, and every accepted push is persisted before it is acked.
    pub fn with_store(spec: CampaignSpec, store: Store) -> Result<Daemon, StoreError> {
        Ok(Daemon::from_ingest(Ingest::with_store(spec, store)?))
    }

    fn from_ingest(ingest: Ingest) -> Daemon {
        let registry = Registry::new();
        registry
            .gauge("collectord.devices.expected")
            .set(ingest.spec().devices as i64);
        if let Some(rec) = ingest.recovery() {
            registry
                .gauge("collectord.recovered.devices")
                .set(rec.merged_devices as i64);
            registry
                .gauge("collectord.recovered.slices")
                .set(rec.slices_loaded as i64);
        }
        Daemon {
            inner: Arc::new(Inner {
                ingest: Mutex::new(ingest),
                registry,
                started: Instant::now(),
            }),
            ingest_timeout: DEFAULT_INGEST_TIMEOUT,
        }
    }

    /// Override the per-connection ingest read/write timeout
    /// ([`DEFAULT_INGEST_TIMEOUT`]). A connection that stalls past it —
    /// idle, half-open, or torn mid-frame — is counted
    /// (`collectord_conn_timeout_total`) and dropped; resilient clients
    /// reconnect and re-push.
    pub fn with_ingest_timeout(mut self, timeout: Duration) -> Daemon {
        self.ingest_timeout = timeout;
        self
    }

    /// Flush the full ingest state (merged collector, pending slices, a
    /// rendered `snapshot.json`) to the journal — the SIGTERM/SIGINT
    /// shutdown path. A no-op without a store.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.inner.ingest.lock().unwrap().flush_to_store()
    }

    /// The daemon's own metrics registry (ingest counters, batch
    /// latency, device gauges). Exported on `/metrics` alongside the
    /// per-shard labelled series.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Whether the whole campaign population has been absorbed.
    pub fn complete(&self) -> bool {
        self.inner.ingest.lock().unwrap().complete()
    }

    /// Accept push connections forever. Each connection carries any
    /// number of `push` frames; every frame is answered with an `ack`
    /// or a typed `error` frame.
    pub fn serve_ingest(&self, listener: TcpListener) {
        info!(
            "collectord: ingest listening on {}",
            listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".to_string())
        );
        for conn in listener.incoming() {
            match conn {
                Ok(stream) => {
                    let daemon = self.clone();
                    std::thread::spawn(move || daemon.handle_push_conn(stream));
                }
                Err(e) => warn!("collectord: accept failed: {e}"),
            }
        }
    }

    /// Accept HTTP connections forever (one GET per connection).
    pub fn serve_http(&self, listener: TcpListener) {
        info!(
            "collectord: http listening on {}",
            listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".to_string())
        );
        for conn in listener.incoming() {
            match conn {
                Ok(stream) => {
                    let daemon = self.clone();
                    std::thread::spawn(move || daemon.handle_http_conn(stream));
                }
                Err(e) => warn!("collectord: accept failed: {e}"),
            }
        }
    }

    fn handle_push_conn(&self, mut stream: TcpStream) {
        let reg = &self.inner.registry;
        // A shard that stalls mid-frame (or a half-open connection that
        // will never send another byte) must not pin this thread
        // forever: bound every read and write.
        let _ = stream.set_read_timeout(Some(self.ingest_timeout));
        let _ = stream.set_write_timeout(Some(self.ingest_timeout));
        // Each reply frame goes out as two writes (length prefix, then
        // payload). With Nagle on, the payload waits for the client's
        // delayed ACK of the prefix — ~40 ms on every push.
        let _ = stream.set_nodelay(true);
        loop {
            let payload = match read_frame(&mut stream) {
                Ok(p) => p,
                Err(FrameError::Closed) => return,
                Err(FrameError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                    ) =>
                {
                    // Tell the peer why before hanging up, best-effort
                    // (it may be long gone).
                    warn!("collectord: ingest connection timed out; dropping it");
                    reg.counter("collectord.conn_timeout").inc();
                    let doc = error_doc(&IngestError::ConnTimeout);
                    let _ = write_frame(&mut stream, doc.to_string().as_bytes());
                    return;
                }
                Err(e) => {
                    warn!("collectord: dropping push connection: {e}");
                    reg.counter("collectord.ingest.errors").inc();
                    return;
                }
            };
            reg.counter("collectord.ingest.bytes")
                .add(payload.len() as u64);
            let reply = self.ingest_frame(&payload);
            if write_frame(&mut stream, reply.to_string().as_bytes()).is_err() {
                return;
            }
        }
    }

    /// Process one push frame and build the reply document. Split out
    /// from the socket loop so tests can drive it without a network.
    pub fn ingest_frame(&self, payload: &[u8]) -> Json {
        let reg = &self.inner.registry;
        reg.counter("collectord.ingest.pushes").inc();
        let started = Instant::now();
        let result: Result<_, IngestError> = (|| {
            let push = parse_push(payload)?;
            let mut ingest = self.inner.ingest.lock().unwrap();
            let ack = ingest.push(&push.shard, &push.state, push.done, payload.len() as u64)?;
            if let Some(t) = push.telemetry {
                ingest.note_telemetry(&push.shard, t);
            }
            Ok(ack)
        })();
        match result {
            Ok(ack) => {
                reg.histogram_ms("collectord.ingest.batch_ms")
                    .observe(started.elapsed().as_secs_f64() * 1e3);
                match ack.outcome {
                    PushOutcome::Duplicate | PushOutcome::Stale => {
                        reg.counter("collectord.ingest.duplicates").inc()
                    }
                    _ => {}
                }
                reg.gauge("collectord.devices.absorbed")
                    .set(ack.devices_absorbed as i64);
                reg.gauge("collectord.devices.view")
                    .set(ack.devices_view as i64);
                if ack.complete {
                    reg.gauge("collectord.campaign.complete").set(1);
                }
                ack_doc(&ack)
            }
            Err(e) => {
                reg.counter("collectord.ingest.errors").inc();
                reg.counter(&format!("collectord.ingest.rejected.{}", e.code()))
                    .inc();
                warn!("collectord: rejected push: {e}");
                error_doc(&e)
            }
        }
    }

    fn handle_http_conn(&self, mut stream: TcpStream) {
        let Some(req) = read_request(&mut stream) else {
            return;
        };
        self.inner
            .registry
            .counter("collectord.http.requests")
            .inc();
        if req.method != "GET" {
            let _ = respond(&mut stream, 405, "text/plain", "only GET is served\n");
            return;
        }
        let _ = match req.path.as_str() {
            "/healthz" => {
                // First line stays exactly "ok" (probe compatibility);
                // recovery provenance rides the following lines.
                let body = {
                    let ingest = self.inner.ingest.lock().unwrap();
                    match ingest.recovery() {
                        Some(rec) if rec.recovered_anything() => format!(
                            "ok\nrecovered merged_devices={} slices_loaded={} \
                             slices_discarded={}\n",
                            rec.merged_devices, rec.slices_loaded, rec.slices_discarded
                        ),
                        Some(_) => "ok\nrecovered nothing (journal was empty)\n".to_string(),
                        None => "ok\n".to_string(),
                    }
                };
                respond(&mut stream, 200, "text/plain", &body)
            }
            "/snapshot" => {
                let body = self.inner.ingest.lock().unwrap().snapshot_pretty();
                respond(&mut stream, 200, "application/json", &body)
            }
            "/status" => {
                let body = self.status_json().to_string_pretty();
                respond(&mut stream, 200, "application/json", &body)
            }
            "/metrics" => {
                let body = self.metrics_text();
                respond(
                    &mut stream,
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    &body,
                )
            }
            "/" => {
                let ingest = self.inner.ingest.lock().unwrap();
                let view = ingest.view().report();
                let shards = shard_rows(&ingest);
                let body = dashboard::render(
                    ingest.spec(),
                    &view,
                    &shards,
                    ingest.devices_absorbed(),
                    ingest.complete(),
                    ingest.throughput_dps(),
                    ingest.eta_secs(),
                );
                respond(&mut stream, 200, "text/html; charset=utf-8", &body)
            }
            _ => respond(&mut stream, 404, "text/plain", "not found\n"),
        };
    }

    /// The `/status` document: campaign identity, progress, and
    /// per-shard heartbeats.
    pub fn status_json(&self) -> Json {
        let ingest = self.inner.ingest.lock().unwrap();
        let spec = ingest.spec();
        let mut campaign = Json::object();
        campaign.set("seed", spec.seed.to_string());
        campaign.set("devices", spec.devices);
        campaign.set("probes_per_device", spec.probes_per_device);
        campaign.set("fingerprint", format!("{:016x}", spec.fingerprint()));
        let mut shards = Json::array();
        for (label, info, age) in shard_rows(&ingest) {
            let mut s = Json::object();
            s.set("shard", label);
            s.set("range_start", info.range_start);
            s.set("devices_pushed", info.devices_pushed);
            s.set("pushes", info.pushes);
            s.set("bytes", info.bytes);
            s.set("final", info.done);
            s.set("heartbeat_age_ms", (age * 1e3).round());
            if let Some(rate) = info.best_rate_dps() {
                s.set("devices_per_sec", rate);
            }
            if let Some(t) = &info.telemetry {
                s.set("workers", t.workers);
                s.set("queue_depth", t.queue_depth);
            }
            shards.push(s);
        }
        let mut doc = Json::object();
        doc.set("service", "collectord");
        doc.set("campaign", campaign);
        doc.set("devices_absorbed", ingest.devices_absorbed());
        doc.set("devices_view", ingest.devices_view());
        doc.set("complete", ingest.complete());
        doc.set(
            "uptime_secs",
            self.inner.started.elapsed().as_secs_f64().round(),
        );
        doc.set("devices_per_sec", ingest.throughput_dps());
        if let Some(eta) = ingest.eta_secs() {
            doc.set("eta_secs", eta);
        }
        if let Some(rec) = ingest.recovery() {
            doc.set("recovery", rec.to_json());
        }
        doc.set("shards", shards);
        doc
    }

    /// The `/metrics` body: the obs Prometheus exporter over the
    /// daemon registry, extended with per-shard labelled series
    /// (ingest counters, devices, final flag, and heartbeat age for
    /// stall detection).
    pub fn metrics_text(&self) -> String {
        use obs::export::{escape_label_value, prometheus};
        use std::fmt::Write as _;

        let mut out = prometheus(&self.inner.registry.snapshot());
        let ingest = self.inner.ingest.lock().unwrap();
        let shards = shard_rows(&ingest);
        if shards.is_empty() {
            return out;
        }
        let _ = writeln!(
            out,
            "# HELP collectord_campaign_devices_per_sec summed live-shard throughput"
        );
        let _ = writeln!(out, "# TYPE collectord_campaign_devices_per_sec gauge");
        let _ = writeln!(
            out,
            "collectord_campaign_devices_per_sec {:.3}",
            ingest.throughput_dps()
        );
        if let Some(eta) = ingest.eta_secs() {
            let _ = writeln!(
                out,
                "# HELP collectord_campaign_eta_seconds estimated seconds to completion"
            );
            let _ = writeln!(out, "# TYPE collectord_campaign_eta_seconds gauge");
            let _ = writeln!(out, "collectord_campaign_eta_seconds {eta:.3}");
        }
        type SeriesValue<'a> = &'a dyn Fn(&ShardInfo, f64) -> String;
        let series: [(&str, &str, &str, SeriesValue); 5] = [
            (
                "collectord_shard_pushes_total",
                "counter",
                "pushes accepted per shard",
                &|i, _| i.pushes.to_string(),
            ),
            (
                "collectord_shard_devices",
                "gauge",
                "devices covered by the shard's latest cumulative push",
                &|i, _| i.devices_pushed.to_string(),
            ),
            (
                "collectord_shard_bytes_total",
                "counter",
                "payload bytes received per shard",
                &|i, _| i.bytes.to_string(),
            ),
            (
                "collectord_shard_final",
                "gauge",
                "1 once the shard declared its slice complete",
                &|i, _| (i.done as u8).to_string(),
            ),
            (
                "collectord_shard_heartbeat_age_seconds",
                "gauge",
                "seconds since the shard's last push (stall detection)",
                &|_, age| format!("{age:.3}"),
            ),
        ];
        for (name, kind, help, value) in series {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (label, info, age) in &shards {
                let _ = writeln!(
                    out,
                    "{name}{{shard=\"{}\"}} {}",
                    escape_label_value(label),
                    value(info, *age)
                );
            }
        }
        // Sparse series: only shards with a usable rate / telemetry
        // emit samples, so a fresh or telemetry-less shard contributes
        // nothing rather than a fake zero.
        let rated: Vec<_> = shards
            .iter()
            .filter_map(|(l, i, _)| i.best_rate_dps().map(|r| (l, r)))
            .collect();
        if !rated.is_empty() {
            let _ = writeln!(
                out,
                "# HELP collectord_shard_devices_per_sec devices/sec per shard \
                 (push-delta derived, falling back to self-reported)"
            );
            let _ = writeln!(out, "# TYPE collectord_shard_devices_per_sec gauge");
            for (label, rate) in rated {
                let _ = writeln!(
                    out,
                    "collectord_shard_devices_per_sec{{shard=\"{}\"}} {rate:.3}",
                    escape_label_value(label)
                );
            }
        }
        let telemetered: Vec<_> = shards
            .iter()
            .filter_map(|(l, i, _)| i.telemetry.as_ref().map(|t| (l, t)))
            .collect();
        if !telemetered.is_empty() {
            let _ = writeln!(
                out,
                "# HELP collectord_shard_queue_depth reorder-buffer depth self-reported by the shard"
            );
            let _ = writeln!(out, "# TYPE collectord_shard_queue_depth gauge");
            for (label, t) in &telemetered {
                let _ = writeln!(
                    out,
                    "collectord_shard_queue_depth{{shard=\"{}\"}} {}",
                    escape_label_value(label),
                    t.queue_depth
                );
            }
            if telemetered.iter().any(|(_, t)| !t.phase_self_ns.is_empty()) {
                let _ = writeln!(
                    out,
                    "# HELP collectord_shard_phase_self_ns self time per engine phase, nanoseconds"
                );
                let _ = writeln!(out, "# TYPE collectord_shard_phase_self_ns gauge");
                for (label, t) in &telemetered {
                    for (phase, ns) in &t.phase_self_ns {
                        let _ = writeln!(
                            out,
                            "collectord_shard_phase_self_ns{{shard=\"{}\",phase=\"{}\"}} {ns}",
                            escape_label_value(label),
                            escape_label_value(phase)
                        );
                    }
                }
            }
        }
        out
    }
}

fn shard_rows(ingest: &Ingest) -> Vec<(String, ShardInfo, f64)> {
    ingest
        .shards()
        .iter()
        .map(|(label, info)| {
            (
                label.clone(),
                info.clone(),
                info.last_push.elapsed().as_secs_f64(),
            )
        })
        .collect()
}
