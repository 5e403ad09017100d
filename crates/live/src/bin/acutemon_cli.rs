//! `acutemon-cli` — measure network RTT with the AcuteMon technique over
//! real sockets.
//!
//! ```text
//! acutemon-cli HOST:PORT [--k N] [--dpre MS] [--db MS] [--ttl N]
//!              [--probe tcp|udp] [--timeout MS] [--no-background]
//!              [--warmup-dst HOST:PORT] [--json]
//!              [--metrics-json] [--metrics-text]
//!              [--trace-out FILE] [--trace-spans FILE] [-v] [--quiet]
//! ```
//!
//! Defaults mirror the paper: K=100, dpre=db=20 ms, warm-up TTL 1 (the
//! keep-awake datagrams die at your gateway), TCP-connect probing.
//!
//! `--metrics-json` / `--metrics-text` append the session's telemetry
//! snapshot (`live.*` counters and the per-probe RTT histogram) to
//! stdout as JSON lines or Prometheus-style text. `--trace-out` writes
//! per-probe spans as Chrome `trace_event` JSON (loadable in
//! `chrome://tracing` / Perfetto); `--trace-spans` writes the same spans
//! as JSON-lines. Tracing is off — and costs nothing on the probe hot
//! path — unless one of the two flags is given. (Simulated campaigns are
//! `repro fleet`'s job.)

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use acutemon_live::{run_traced, LiveConfig, LiveProbe};
use obs::{error, info, Tracer};

struct Cli {
    cfg: LiveConfig,
    json: bool,
    metrics_json: bool,
    metrics_text: bool,
    trace_out: Option<PathBuf>,
    trace_spans: Option<PathBuf>,
}

fn usage() -> ! {
    error!(
        "usage: acutemon-cli HOST:PORT [--k N] [--dpre MS] [--db MS] [--ttl N]\n\
         \x20                [--probe tcp|udp] [--timeout MS] [--no-background]\n\
         \x20                [--warmup-dst HOST:PORT] [--json]\n\
         \x20                [--metrics-json] [--metrics-text]\n\
         \x20                [--trace-out FILE] [--trace-spans FILE] [-v] [--quiet]\n\
         \n\
         \x20 --trace-out FILE    write per-probe spans as Chrome trace_event\n\
         \x20                     JSON (open in chrome://tracing or Perfetto)\n\
         \x20 --trace-spans FILE  write the same spans as JSON-lines"
    );
    std::process::exit(2);
}

/// The next argument as a number no larger than `max`; anything else
/// exits 2 (a count that would wrap is rejected, not measured).
fn next_num(args: &mut dyn Iterator<Item = String>, what: &str, max: u64) -> u64 {
    args.next()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n <= max)
        .unwrap_or_else(|| {
            error!("acutemon-cli: {what} needs a number no larger than {max}");
            std::process::exit(2);
        })
}

fn parse() -> Cli {
    let mut args = std::env::args().skip(1);
    let Some(target) = args.next() else { usage() };
    if target == "--help" || target == "-h" {
        usage();
    }
    let target: SocketAddr = target.parse().unwrap_or_else(|_| {
        error!("acutemon-cli: bad target address (need HOST:PORT)");
        std::process::exit(2);
    });
    let mut cfg = LiveConfig::new(target, 100);
    let mut json = false;
    let mut metrics_json = false;
    let mut metrics_text = false;
    let mut trace_out = None;
    let mut trace_spans = None;
    let mut quiet = false;
    let mut verbosity = 0u8;
    let ms = |args: &mut dyn Iterator<Item = String>, what: &str| {
        Duration::from_millis(next_num(args, what, u64::MAX))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--k" => cfg.k = next_num(&mut args, "--k", u32::MAX.into()) as u32,
            "--dpre" => cfg.dpre = ms(&mut args, "--dpre"),
            "--db" => cfg.db = ms(&mut args, "--db"),
            "--ttl" => cfg.warmup_ttl = next_num(&mut args, "--ttl", 255) as u32,
            "--timeout" => cfg.probe_timeout = ms(&mut args, "--timeout"),
            "--probe" => match args.next().as_deref() {
                Some("tcp") => cfg.probe = LiveProbe::TcpConnect,
                Some("udp") => cfg.probe = LiveProbe::UdpEcho,
                _ => usage(),
            },
            "--no-background" => cfg.background_enabled = false,
            "--warmup-dst" => {
                cfg.warmup_dst = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--json" => json = true,
            "--metrics-json" => metrics_json = true,
            "--metrics-text" => metrics_text = true,
            "--trace-out" => {
                trace_out = Some(args.next().map(PathBuf::from).unwrap_or_else(|| usage()))
            }
            "--trace-spans" => {
                trace_spans = Some(args.next().map(PathBuf::from).unwrap_or_else(|| usage()))
            }
            "--quiet" | "-q" => quiet = true,
            "-v" | "--verbose" => verbosity += 1,
            _ => usage(),
        }
    }
    obs::log::init_from_flags(quiet, verbosity);
    Cli {
        cfg,
        json,
        metrics_json,
        metrics_text,
        trace_out,
        trace_spans,
    }
}

fn main() {
    let cli = parse();
    let tracer = if cli.trace_out.is_some() || cli.trace_spans.is_some() {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let report = match run_traced(cli.cfg, &tracer) {
        Ok(r) => r,
        Err(e) => {
            error!("acutemon-cli: {e}");
            std::process::exit(1);
        }
    };
    if cli.json {
        // Hand-rolled JSON keeps the CLI dependency-free.
        let rtts: Vec<String> = report.rtts_ms().iter().map(|r| format!("{r:.4}")).collect();
        println!(
            "{{\"completion\":{:.4},\"warmup_sent\":{},\"background_sent\":{},\
             \"send_errors\":{},\"elapsed_ms\":{:.3},\"rtts_ms\":[{}]}}",
            report.completion(),
            report.bt.warmup_sent,
            report.bt.background_sent,
            report.bt.send_errors,
            report.elapsed.as_secs_f64() * 1e3,
            rtts.join(",")
        );
    } else {
        info!("probes:      {}", report.samples.len());
        info!("completion:  {:.0}%", report.completion() * 100.0);
        match report.summary() {
            Some(s) => info!(
                "RTT:         {} ms  (min {:.3}, max {:.3}, n {})",
                s.cell(),
                s.min,
                s.max,
                s.n
            ),
            None => info!("RTT:         no probe completed"),
        }
        info!(
            "background:  {} warm-up + {} keep-awake, {} send errors",
            report.bt.warmup_sent, report.bt.background_sent, report.bt.send_errors
        );
        info!("elapsed:     {:.1} ms", report.elapsed.as_secs_f64() * 1e3);
    }
    if cli.metrics_json {
        print!("{}", obs::export::json_lines(&report.counts));
    }
    if cli.metrics_text {
        print!("{}", obs::export::prometheus(&report.counts));
    }
    if cli.trace_out.is_some() || cli.trace_spans.is_some() {
        let spans = tracer.spans();
        if let Some(p) = &cli.trace_out {
            let doc = obs::export::chrome_trace(&spans).to_string_pretty();
            if let Err(e) = std::fs::write(p, doc) {
                error!("acutemon-cli: write {}: {e}", p.display());
                std::process::exit(1);
            }
            info!("trace:       {} ({} spans)", p.display(), spans.len());
        }
        if let Some(p) = &cli.trace_spans {
            if let Err(e) = std::fs::write(p, obs::export::span_json_lines(&spans)) {
                error!("acutemon-cli: write {}: {e}", p.display());
                std::process::exit(1);
            }
            info!("spans:       {} ({} records)", p.display(), spans.len());
        }
    }
}
