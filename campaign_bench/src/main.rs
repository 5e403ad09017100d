//! The campaign benchmark: one command for the repository's three
//! workloads (`fleet-mixed`, `fleet-short`, `ingest-live`), driven
//! through the public entry points of `fleet` and `collectord`.
//!
//! ```text
//! campaign-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints every end-to-end metric, measured with all
//! instrumentation off. `--trace 1` runs the separate traced run and
//! prints the per-layer split. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. The exit
//! status is non-zero when an output check fails. See README.md.

// Exact per-call allocation counts for the traced run, as `repro`
// counts them: thread-local counters over the system allocator.
#[global_allocator]
static ALLOC: obs::prof::CountingAlloc = obs::prof::CountingAlloc;

mod checks;
mod fleet_run;
mod hostspeed;
mod ingest;
mod outcome;
mod population;
mod procfs;
mod stats;
mod traced;

use population::Workload;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s > 0)
                        .ok_or_else(|| format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The documented default seed; [`HELD_OUT_SEED`] is kept out of
/// tuning so a gain claim can be checked on inputs nobody tuned for.
pub const DEFAULT_SEED: u64 = 2016;
/// See [`DEFAULT_SEED`].
#[cfg(test)]
pub const HELD_OUT_SEED: u64 = 977;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("child-fleet") => child_fleet(&argv[1..]),
        Some("child-daemon") => ingest::child_daemon(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            eprintln!(
                "usage: campaign-bench --workload <fleet-mixed|fleet-short|ingest-live> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!(
        "campaign-bench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("{}", outcome::host_facts());
    let steal0 = procfs::steal_ticks();
    let (mut outcome, expected) = match (args.workload, args.trace) {
        (w, true) => (
            traced::run(w, args.seed, args.seconds),
            traced::per_layer_metrics(),
        ),
        (w, false) => (
            match w {
                Workload::IngestLive => ingest::run(args.seed, args.seconds),
                _ => fleet_run::run(w, args.seed, args.seconds),
            },
            outcome::END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect(),
        ),
    };
    let printed: Vec<(String, &str)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect();
    let steal1 = procfs::steal_ticks();
    outcome.facts.push(format!(
        "host: the hypervisor stole {:.1}% of this machine's CPU time during the run",
        100.0 * (steal1.1 - steal0.1) as f64 / (steal1.0 - steal0.0).max(1) as f64
    ));
    if printed != expected {
        outcome.fail(
            0,
            "the run printed a different metric list than BENCHMARK.json names",
        );
    }
    outcome.print();
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}

fn child_fleet(args: &[String]) -> ! {
    let parsed = (|| {
        let w = Workload::parse(args.first()?)?;
        let seed = args.get(1)?.parse().ok()?;
        let reps = args.get(2)?.parse().ok()?;
        Some((w, seed, reps))
    })();
    let Some((w, seed, reps)) = parsed else {
        eprintln!("campaign-bench child-fleet: bad arguments {args:?}");
        std::process::exit(2);
    };
    println!("CHILD {}", fleet_run::child(w, seed, reps));
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn benchmark_json_names_what_the_runs_print() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = obs::Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(obs::Json::as_arr)
                .expect("a list")
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(obs::Json::as_str)
                        .expect("a string")
                        .to_string()
                })
                .collect()
        };
        // The gated workloads; ingest-live runs on request only (README).
        assert_eq!(list("workloads", "name"), ["fleet-mixed", "fleet-short"]);
        let e2e: Vec<String> = outcome::END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        let e2e_units: Vec<String> = outcome::END_TO_END
            .iter()
            .map(|(_, u)| u.to_string())
            .collect();
        assert_eq!(list("end_to_end", "name"), e2e);
        assert_eq!(list("end_to_end", "unit"), e2e_units);
        let layers = traced::per_layer_metrics();
        assert_eq!(
            list("per_layer", "name"),
            layers.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
        );
        assert_eq!(
            list("per_layer", "unit"),
            layers
                .iter()
                .map(|(_, u)| u.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "ingest-live",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::IngestLive,
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "fleet-short", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }
}
