//! Snapshot exporters: JSON-lines and Prometheus-style text for metric
//! snapshots; Chrome `trace_event` JSON and JSON-lines for span traces.

use std::fmt::Write as _;

use crate::json::{Json, ToJson};
use crate::metrics::Snapshot;
use crate::trace::SpanRecord;

/// One JSON object per line per metric — suitable for appending to a
/// log file and joining across runs.
pub fn json_lines(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let mut obj = Json::object();
        obj.set("type", "counter");
        obj.set("name", name);
        obj.set("value", *v);
        out.push_str(&obj.to_string());
        out.push('\n');
    }
    for (name, v) in &snap.gauges {
        let mut obj = Json::object();
        obj.set("type", "gauge");
        obj.set("name", name);
        obj.set("value", *v);
        out.push_str(&obj.to_string());
        out.push('\n');
    }
    for h in &snap.histograms {
        let mut obj = Json::object();
        obj.set("type", "histogram");
        // HistogramSnapshot::to_json is an object; splice its fields in
        // after the type tag.
        if let Json::Obj(fields) = h.to_json() {
            for (k, v) in fields {
                obj.set(&k, v);
            }
        }
        out.push_str(&obj.to_string());
        out.push('\n');
    }
    out
}

/// Prometheus text exposition format, conformant with the text-format
/// spec: one `# HELP` + `# TYPE` pair per metric *family* (families
/// that sanitize to the same name are emitted once), counters suffixed
/// `_total`, cumulative `le` buckets with `_sum`/`_count` series, and
/// escaped label values / help text. Metric names have every
/// non-`[a-zA-Z0-9_]` character folded to `_`; the `# HELP` line
/// carries the original dotted name so the mapping stays visible.
pub fn prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut header = |out: &mut String, family: &str, orig: &str, kind: &str| {
        if seen.insert(family.to_string()) {
            let _ = writeln!(out, "# HELP {family} {}", escape_help(orig));
            let _ = writeln!(out, "# TYPE {family} {kind}");
        }
    };
    for (name, v) in &snap.counters {
        let n = counter_family(name);
        header(&mut out, &n, name, "counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, v) in &snap.gauges {
        let n = sanitize(name);
        header(&mut out, &n, name, "gauge");
        let _ = writeln!(out, "{n} {v}");
    }
    for h in &snap.histograms {
        let n = sanitize(&h.name);
        header(&mut out, &n, &h.name, "histogram");
        let mut cum = 0u64;
        for (bound, count) in h.bounds.iter().zip(&h.buckets) {
            // Non-finite explicit bounds fold into the trailing +Inf
            // series (a literal `le="inf"`/`le="NaN"` is nonconformant
            // and would duplicate the +Inf bucket).
            if !bound.is_finite() {
                continue;
            }
            cum += count;
            let _ = writeln!(
                out,
                "{n}_bucket{{le=\"{}\"}} {cum}",
                escape_label_value(&bound.to_string())
            );
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{n}_sum {}", h.sum());
        let _ = writeln!(out, "{n}_count {}", h.count());
    }
    out
}

/// The sanitized family name of a counter: `_total`-suffixed per the
/// Prometheus naming convention (idempotent when the name already ends
/// in `_total`).
pub fn counter_family(name: &str) -> String {
    let n = sanitize(name);
    if n.ends_with("_total") {
        n
    } else {
        format!("{n}_total")
    }
}

/// Escape a label value for the Prometheus text format: backslash,
/// double-quote, and newline become `\\`, `\"`, and `\n`.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape `# HELP` text: backslash and newline (quotes are legal there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Chrome `trace_event` JSON (the format `chrome://tracing` and Perfetto
/// load). Every finished span becomes a complete (`"ph":"X"`) event;
/// timestamps are microseconds, one `tid` lane per trace so probes stack
/// as parallel rows. Unfinished spans are skipped.
pub fn chrome_trace(spans: &[SpanRecord]) -> Json {
    let mut events = Json::array();
    for s in spans {
        let Some(end) = s.end_ns else { continue };
        let mut ev = Json::object();
        ev.set("name", s.name);
        ev.set("cat", s.cat);
        ev.set("ph", "X");
        ev.set("ts", s.start_ns as f64 / 1e3);
        ev.set("dur", end.saturating_sub(s.start_ns) as f64 / 1e3);
        ev.set("pid", 1u32);
        ev.set("tid", s.trace.0);
        let mut args = Json::object();
        args.set("span_id", s.id.0);
        if let Some(p) = s.parent {
            args.set("parent", p.0);
        }
        for (k, v) in &s.attrs {
            args.set(k, v.to_json());
        }
        ev.set("args", args);
        events.push(ev);
    }
    let mut doc = Json::object();
    doc.set("traceEvents", events);
    doc.set("displayTimeUnit", "ms");
    doc
}

/// One JSON object per span per line — the compact log-friendly form of
/// a trace (see [`SpanRecord`]'s `ToJson` for the schema).
pub fn span_json_lines(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&s.to_json().to_string());
        out.push('\n');
    }
    out
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("sim.events").add(42);
        r.gauge("sim.queue_depth").set(7);
        let h = r.histogram("phone.sdio.wake_latency_ms", &[1.0, 10.0, 100.0]);
        h.observe(0.5);
        h.observe(12.0);
        h.observe(12.0);
        r
    }

    #[test]
    fn json_lines_one_object_per_line() {
        let text = json_lines(&sample_registry().snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(r#""type":"counter""#));
        assert!(lines[0].contains(r#""value":42"#));
        assert!(lines[2].contains(r#""type":"histogram""#));
        assert!(lines[2].contains(r#""count":3"#));
    }

    #[test]
    fn prometheus_cumulative_buckets() {
        let text = prometheus(&sample_registry().snapshot());
        assert!(text.contains("# HELP sim_events_total sim.events"));
        assert!(text.contains("# TYPE sim_events_total counter\nsim_events_total 42"));
        assert!(text.contains("# TYPE sim_queue_depth gauge\nsim_queue_depth 7"));
        assert!(text.contains("phone_sdio_wake_latency_ms_bucket{le=\"1\"} 1"));
        assert!(text.contains("phone_sdio_wake_latency_ms_bucket{le=\"10\"} 1"));
        assert!(text.contains("phone_sdio_wake_latency_ms_bucket{le=\"100\"} 3"));
        assert!(text.contains("phone_sdio_wake_latency_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("phone_sdio_wake_latency_ms_count 3"));
        // Each cumulative bucket count is monotone and the +Inf bucket
        // equals the total count.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("phone_sdio_wake_latency_ms_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(*counts.last().unwrap(), 3);
    }

    #[test]
    fn prometheus_histogram_exposition_is_conformant() {
        // The full shape the text-format spec requires of a histogram
        // family: HELP + TYPE once, every `_bucket` with an `le`
        // label, a `+Inf` bucket equal to `_count`, and `_sum`.
        let text = prometheus(&sample_registry().snapshot());
        let fam = "phone_sdio_wake_latency_ms";
        assert_eq!(text.matches(&format!("# TYPE {fam} histogram")).count(), 1);
        assert_eq!(text.matches(&format!("# HELP {fam} ")).count(), 1);
        let buckets: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with(&format!("{fam}_bucket")))
            .collect();
        assert!(buckets.iter().all(|l| l.contains("{le=\"")), "{buckets:?}");
        assert_eq!(
            buckets.last().unwrap(),
            &"phone_sdio_wake_latency_ms_bucket{le=\"+Inf\"} 3"
        );
        assert!(text.contains(&format!("{fam}_sum ")), "{text}");
        assert!(text.contains(&format!("{fam}_count 3")), "{text}");
        // _sum precedes _count, after all buckets (spec ordering).
        let pos = |needle: &str| text.find(needle).unwrap();
        assert!(pos("_bucket{le=\"+Inf\"}") < pos(&format!("{fam}_sum")));
        assert!(pos(&format!("{fam}_sum")) < pos(&format!("{fam}_count")));
    }

    #[test]
    fn prometheus_folds_nonfinite_bounds_into_inf_bucket() {
        // A histogram declared with an explicit infinite upper bound
        // must not render `le="inf"` — the overflow rolls into the
        // single canonical `+Inf` series.
        let r = Registry::new();
        let h = r.histogram("weird.bounds", &[1.0, f64::INFINITY]);
        h.observe(0.5);
        h.observe(100.0);
        h.observe(200.0);
        let text = prometheus(&r.snapshot());
        assert!(!text.contains("le=\"inf\""), "{text}");
        assert!(!text.contains("le=\"NaN\""), "{text}");
        assert_eq!(text.matches("weird_bounds_bucket{le=\"+Inf\"}").count(), 1);
        assert!(text.contains("weird_bounds_bucket{le=\"1\"} 1"), "{text}");
        assert!(
            text.contains("weird_bounds_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("weird_bounds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn prometheus_escapes_metric_names() {
        let r = Registry::new();
        r.counter("netem.link-a.b/c forwarded").inc();
        let text = prometheus(&r.snapshot());
        assert!(
            text.contains("netem_link_a_b_c_forwarded_total 1"),
            "every non-alphanumeric character folds to '_': {text}"
        );
    }

    #[test]
    fn prometheus_counters_are_total_suffixed_once() {
        let r = Registry::new();
        r.counter("probes.sent").add(3);
        r.counter("frames.dropped_total").add(2);
        let text = prometheus(&r.snapshot());
        assert!(text.contains("probes_sent_total 3"), "{text}");
        // Idempotent: an already-suffixed name is not doubled.
        assert!(text.contains("frames_dropped_total 2"), "{text}");
        assert!(!text.contains("_total_total"), "{text}");
    }

    #[test]
    fn prometheus_emits_help_and_type_once_per_family() {
        // Two dotted names that sanitize to the same family must not
        // repeat the HELP/TYPE header.
        let r = Registry::new();
        r.counter("a.b").inc();
        r.counter("a-b").inc();
        let text = prometheus(&r.snapshot());
        assert_eq!(
            text.matches("# TYPE a_b_total counter").count(),
            1,
            "{text}"
        );
        assert_eq!(text.matches("# HELP a_b_total").count(), 1, "{text}");
        // Both series still appear.
        assert_eq!(text.matches("a_b_total 1").count(), 2, "{text}");
    }

    #[test]
    fn label_values_escape_quotes_backslashes_newlines() {
        assert_eq!(escape_label_value(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("a\nb"), r"a\nb");
        assert_eq!(escape_label_value("plain"), "plain");
    }

    #[test]
    fn json_lines_escapes_names() {
        let r = Registry::new();
        r.counter("weird\"name\n").inc();
        let text = json_lines(&r.snapshot());
        assert!(text.contains(r#""name":"weird\"name\n""#), "{text}");
        // Still exactly one line per metric despite the embedded newline
        // escape.
        assert_eq!(text.lines().count(), 1);
        // And each line parses back.
        assert!(crate::Json::parse(text.lines().next().unwrap()).is_ok());
    }

    #[test]
    fn empty_registry_exports_empty_output() {
        let snap = Registry::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(json_lines(&snap), "");
        assert_eq!(prometheus(&snap), "");
        // A disabled registry's snapshot is also empty.
        let snap = Registry::disabled().snapshot();
        assert_eq!(json_lines(&snap), "");
        assert_eq!(prometheus(&snap), "");
    }

    #[test]
    fn chrome_trace_round_trips_with_required_fields() {
        let t = crate::Tracer::new();
        let tr = t.begin_trace();
        let root = t.start_span(tr, None, "probe", "app", 1_000_000);
        t.attr(root, "probe", 0u32);
        t.span(tr, Some(root), "sdio_wake", "driver", 1_500_000, 9_000_000);
        t.end_span(root, 40_000_000);
        t.start_span(tr, Some(root), "open", "app", 2_000_000); // never ends
        let doc = chrome_trace(&t.spans());
        let text = doc.to_string();
        let parsed = crate::Json::parse(&text).expect("chrome trace parses");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2, "unfinished spans are skipped");
        for ev in events {
            assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
            assert!(ev.get("ts").unwrap().as_f64().is_some());
            assert!(ev.get("dur").unwrap().as_f64().is_some());
            assert!(ev.get("pid").unwrap().as_f64().is_some());
            assert!(ev.get("tid").unwrap().as_f64().is_some());
        }
        // Microsecond timestamps.
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(1000.0));
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(39_000.0));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(root.0 as f64)
        );
    }

    #[test]
    fn span_json_lines_parse_back() {
        let t = crate::Tracer::new();
        let tr = t.begin_trace();
        let root = t.start_span(tr, None, "probe", "app", 0);
        t.attr(root, "tool", "ping");
        t.end_span(root, 5);
        let text = span_json_lines(&t.spans());
        assert_eq!(text.lines().count(), 1);
        let obj = crate::Json::parse(text.trim()).unwrap();
        assert_eq!(obj.get("name").unwrap().as_str(), Some("probe"));
        assert_eq!(obj.get("end_ns").unwrap().as_f64(), Some(5.0));
        assert_eq!(
            obj.get("attrs").unwrap().get("tool").unwrap().as_str(),
            Some("ping")
        );
    }
}
