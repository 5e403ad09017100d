//! The `/` status dashboard: one self-contained HTML page (inline CSS,
//! zero JavaScript beyond a meta-refresh) showing campaign progress,
//! per-shard ingest state, and per-stratum delay quantiles from the
//! live view.

use fleet::{CampaignReport, CampaignSpec};

use crate::ingest::ShardInfo;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_q(s: &am_stats::QuantileSketch, p: f64) -> String {
    match s.quantile(p) {
        Some(v) => format!("{v:.2}"),
        None => "—".to_string(),
    }
}

fn fmt_eta(secs: f64) -> String {
    if secs >= 3600.0 {
        format!(
            "{:.0}h{:02.0}m",
            (secs / 3600.0).floor(),
            (secs % 3600.0) / 60.0
        )
    } else if secs >= 60.0 {
        format!("{:.0}m{:02.0}s", (secs / 60.0).floor(), secs % 60.0)
    } else {
        format!("{secs:.0}s")
    }
}

/// Render the dashboard for the current ingest state. `view` is the
/// live campaign report, `shards` the per-shard bookkeeping with
/// heartbeat ages already computed (label, info, age in seconds).
/// `throughput_dps` and `eta_secs` come from the ingest's push-delta
/// rate derivation; `eta_secs == None` renders as "—" (no live shard
/// has a usable rate yet).
pub fn render(
    spec: &CampaignSpec,
    view: &CampaignReport,
    shards: &[(String, ShardInfo, f64)],
    devices_absorbed: u64,
    complete: bool,
    throughput_dps: f64,
    eta_secs: Option<f64>,
) -> String {
    let devices_view: u64 = view.devices;
    let pct = |n: u64| {
        if spec.devices == 0 {
            100.0
        } else {
            100.0 * n as f64 / spec.devices as f64
        }
    };

    let mut shard_rows = String::new();
    for (label, info, age) in shards {
        let end = info.range_start + info.devices_pushed;
        let rate = match info.rate_dps {
            Some(r) => format!("{r:.0}"),
            None => "—".to_string(),
        };
        shard_rows.push_str(&format!(
            "<tr><td><code>{}</code></td><td>{}..{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{:.1}&nbsp;s</td><td>{}</td></tr>\n",
            esc(label),
            info.range_start,
            end,
            info.devices_pushed,
            rate,
            info.pushes,
            if info.done { "final" } else { "running" },
            age,
            info.bytes,
        ));
    }
    if shard_rows.is_empty() {
        shard_rows.push_str("<tr><td colspan=\"8\"><em>no shards have pushed yet</em></td></tr>\n");
    }

    let mut stratum_rows = String::new();
    for s in &view.strata {
        stratum_rows.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{:.1}%</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            esc(&s.name),
            s.devices,
            s.probes_sent,
            100.0 * s.du.completion(),
            fmt_q(&s.du, 0.5),
            fmt_q(&s.du, 0.9),
            fmt_q(&s.du, 0.99),
            fmt_q(&s.dn, 0.5),
            fmt_q(&s.overhead, 0.5),
        ));
    }

    format!(
        r#"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>collectord — campaign {seed}</title>
<style>
body {{ font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 70rem;
       color: #1a1a2e; padding: 0 1rem; }}
h1 {{ font-size: 1.3rem; }} h2 {{ font-size: 1.05rem; margin-top: 1.6rem; }}
table {{ border-collapse: collapse; width: 100%; }}
th, td {{ text-align: right; padding: .25rem .6rem; border-bottom: 1px solid #ddd; }}
th:first-child, td:first-child {{ text-align: left; }}
th {{ background: #f4f4f8; }}
.bar {{ background: #e8e8ef; border-radius: 4px; height: 1.1rem; overflow: hidden; }}
.bar > div {{ background: {bar_color}; height: 100%; }}
.meta {{ color: #666; }}
code {{ background: #f4f4f8; padding: 0 .25rem; border-radius: 3px; }}
</style>
</head>
<body>
<h1>collectord — campaign seed {seed}, {devices} devices × {k} probes</h1>
<p class="meta">spec fingerprint <code>{fp:016x}</code> ·
{absorbed} absorbed ({apct:.1}%) · {viewed} in view ({vpct:.1}%) ·
{rate} devices/s · ETA {eta} ·
state: <strong>{state}</strong> · auto-refreshes every 2&nbsp;s</p>
<div class="bar"><div style="width:{vpct:.2}%"></div></div>
<h2>Shards</h2>
<table>
<tr><th>shard</th><th>range</th><th>devices</th><th>dev/s</th>
<th>pushes</th><th>state</th><th>heartbeat age</th><th>bytes</th></tr>
{shard_rows}</table>
<h2>Per-stratum quantiles (live view, ms)</h2>
<table>
<tr><th>stratum</th><th>devices</th><th>probes</th><th>compl</th>
<th>du p50</th><th>du p90</th><th>du p99</th><th>dn p50</th><th>ovh p50</th></tr>
{stratum_rows}<tr><th>population</th><th>{viewed}</th>
<th>{probes}</th><th>{compl:.1}%</th>
<th>{dup50}</th><th>{dup90}</th><th>{dup99}</th><th></th><th>{ovhp50}</th></tr>
</table>
<p class="meta">endpoints: <a href="/snapshot">/snapshot</a> ·
<a href="/status">/status</a> · <a href="/metrics">/metrics</a> ·
<a href="/healthz">/healthz</a></p>
</body>
</html>
"#,
        seed = spec.seed,
        devices = spec.devices,
        k = spec.probes_per_device,
        fp = spec.fingerprint(),
        absorbed = devices_absorbed,
        apct = pct(devices_absorbed),
        viewed = devices_view,
        vpct = pct(devices_view),
        state = if complete { "complete" } else { "collecting" },
        rate = if throughput_dps > 0.0 {
            format!("{throughput_dps:.0}")
        } else {
            "—".to_string()
        },
        eta = if complete {
            "done".to_string()
        } else {
            match eta_secs {
                Some(s) => fmt_eta(s),
                None => "—".to_string(),
            }
        },
        bar_color = if complete { "#2e9e5b" } else { "#4a6fd4" },
        shard_rows = shard_rows,
        stratum_rows = stratum_rows,
        probes = view.strata.iter().map(|s| s.probes_sent).sum::<u64>(),
        compl = 100.0 * view.du_all.completion(),
        dup50 = fmt_q(&view.du_all, 0.5),
        dup90 = fmt_q(&view.du_all, 0.9),
        dup99 = fmt_q(&view.du_all, 0.99),
        ovhp50 = fmt_q(&view.overhead_all, 0.5),
    )
}
