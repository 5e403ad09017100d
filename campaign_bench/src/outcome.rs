//! What one benchmark run reports: metrics with units, operations
//! attempted and failed, the output-check failures, and host facts.

/// Every end-to-end metric an untraced run prints, with its unit, in
/// order. Each workload reports all of them (README.md says what each
/// means per workload).
pub const END_TO_END: [(&str, &str); 8] = [
    ("devices_per_s", "1/s"),
    ("cpu_us_per_device", "us"),
    ("push_p50_ms", "ms"),
    ("push_p99_ms", "ms"),
    ("snapshot_p50_ms", "ms"),
    ("snapshot_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained (sample counts, medians), printed
    /// beside it for a human reader.
    pub note: String,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Facts about the run that are not metrics (reader lateness, sample
    /// counts), printed before the result line.
    pub facts: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Record a failed output check that cost `ops` operations.
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops;
        self.failures.push(why.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.failures.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The last line of a run's standard output.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Print the human-readable lines, then the result line.
    pub fn print(&self) {
        for f in &self.facts {
            println!("{f}");
        }
        for m in &self.metrics {
            println!(
                "metric {:<46} {:>16} {:<6} {}",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.note
            );
        }
        for f in &self.failures {
            println!("check failed: {f}");
        }
        println!(
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        println!("{}", self.json_line());
    }
}

/// A finite number as JSON with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (which make the run incorrect)
/// become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `nproc`, CPU model, rustc version and commit, as one line.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let run = |cmd: &str, args: &[&str]| -> String {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let rustc = run("rustc", &["--version"]);
    let commit = run("git", &["rev-parse", "--short=12", "HEAD"]);
    format!("host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" commit={commit}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("latency_ms", 1.2034567891, "ms", "");
        let line = o.json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}}}"
        );
        let doc = obs::Json::parse(&line).unwrap();
        assert!(doc.get("metrics").unwrap().get("latency_ms").is_some());
    }

    #[test]
    fn a_failed_check_or_a_missing_value_makes_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.metric("x", 1.0, "s", "");
        assert!(o.correct());
        o.fail(2, "headline");
        assert!(!o.correct());
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.metric("x", f64::NAN, "s", "");
        assert!(!o.correct());
        assert!(o.json_line().contains("null"));
    }
}
