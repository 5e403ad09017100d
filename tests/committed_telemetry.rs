//! The committed telemetry JSON lines (`results/telemetry_*.jsonl`) are
//! what `repro all` writes at its default seed (2016) and K (100,
//! capped at 30 for these sessions): the same run, exported the same
//! way, must reproduce them line for line, apart from `sim.wall_ns`,
//! the host's wall-clock time. That pins the engine's own counts
//! (`sim.events_processed` and the `sim.queue_depth` gauges) beside
//! every layer's, without building `repro`.

use testbed::experiments::telemetry::{self, TelemetryTool};

/// The lines of a JSON-lines export, without the one that measures the
/// host rather than the simulation.
fn simulated(lines: &str) -> Vec<&str> {
    lines
        .lines()
        .filter(|l| !l.contains(r#""name":"sim.wall_ns""#))
        .collect()
}

fn assert_reproduces(tool: TelemetryTool, committed: &str) {
    for name in [
        "sim.events_processed",
        "sim.queue_depth",
        "sim.queue_depth_peak",
    ] {
        let line = format!(r#""name":"{name}","value""#);
        assert!(committed.contains(&line), "committed file lacks {name}");
    }
    let run = telemetry::run(tool, 30, 2016, 300);
    let fresh = obs::export::json_lines(&run.snapshot);
    assert_eq!(simulated(&fresh), simulated(committed));
}

#[test]
fn slow_ping_telemetry_matches_the_committed_file() {
    assert_reproduces(
        TelemetryTool::SlowPing,
        include_str!("../results/telemetry_slow_ping.jsonl"),
    );
}

#[test]
fn acutemon_telemetry_matches_the_committed_file() {
    assert_reproduces(
        TelemetryTool::AcuteMon,
        include_str!("../results/telemetry_acutemon.jsonl"),
    );
}
