//! `perf` — the repository's benchmark.
//!
//! Five workloads, five gated end-to-end metrics measured with tracing
//! off, and a separate traced run that times every layer from outside
//! through the crates' public functions. `README.md` beside this file has
//! the tables; `perf list` prints them from the registry.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   the driver's form
//! perf run [--workload W] [--seed N] [--seconds S] [--out FILE]
//! perf trace [--workload W] [--seed N] [--spans FILE] [--out FILE]
//! perf compare A.json B.json
//! perf list | perf manifest
//! ```

mod compare;
mod digest;
mod harness;
mod json;
mod layers;
mod registry;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::{obj, Value};

/// Parsed `--flag value` pairs.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|name| allowed.contains(name))
                .ok_or_else(|| format!("unknown argument {flag:?}"))?;
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed").map_or(Ok(registry::DEFAULT_SEED), |s| {
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.map_err(|_| format!("--seed {s:?} is not a u64"))
        })
    }

    fn seconds(&self) -> Result<f64, String> {
        self.get("seconds")
            .map_or(Ok(registry::RUN_SECONDS as f64), |s| {
                s.parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| format!("--seconds {s:?} is not a positive number"))
            })
    }

    fn workload(&self) -> Result<Option<&'static str>, String> {
        self.get("workload")
            .map(|name| {
                registry::workload(name)
                    .map(|w| w.name)
                    .ok_or_else(|| format!("unknown workload {name:?}; see `perf list`"))
            })
            .transpose()
    }
}

/// Writes `text` to `--out FILE` when given, else to standard output.
fn emit(flags: &Flags, text: &str) -> Result<(), String> {
    match flags.get("out") {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("{path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// A record: what was measured under `key`, with where it came from.
fn record(seed: u64, key: &str, value: Value) -> Value {
    obj([("provenance", harness::provenance(seed)), (key, value)])
}

/// Checks that hold before anything is measured.
fn preflight() -> Result<(), String> {
    harness::check_profile(cfg!(debug_assertions))?;
    harness::pin_exec_budget()
}

/// One run set: the named workload (or all five), measured end to end.
fn run_set(workload: Option<&str>, seed: u64, seconds: f64) -> Result<(Value, u64), String> {
    let mut runs = Vec::new();
    let mut failed = 0;
    for def in &registry::WORKLOADS {
        if workload.is_none_or(|name| name == def.name) {
            let measured = harness::measure(def.name, seed, seconds)?;
            failed += measured.failed;
            runs.push(measured.report);
        }
    }
    let set = obj([
        ("provenance", harness::provenance(seed)),
        ("run_seconds", seconds.into()),
        ("runs", Value::Arr(runs)),
    ]);
    Ok((set, failed))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "out"])?;
    preflight()?;
    let (set, failed) = run_set(flags.workload()?, flags.seed()?, flags.seconds()?)?;
    emit(&flags, &(set.render() + "\n"))?;
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "spans", "out"])?;
    preflight()?;
    let focus = flags.workload()?;
    if flags.get("spans").is_some() && focus.is_none() {
        return Err("--spans needs --workload: name the replica whose spans to write".into());
    }
    let seed = flags.seed()?;
    let run = suite::traced_run(seed, focus)?;
    if let Some(path) = flags.get("spans") {
        std::fs::write(path, trace::spans_json(&run.spans).render())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    emit(&flags, &record(seed, "traced", run.report).render_pretty())?;
    Ok(ExitCode::SUCCESS)
}

/// `perf --workload W --seed N --seconds S --trace 0|1`: one workload, the
/// full record on one line, then the result line the driver reads.
fn cmd_driver(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    preflight()?;
    let workload = flags.workload()?.ok_or("--workload is required")?;
    let seed = flags.seed()?;
    let line = match flags.get("trace").unwrap_or("0") {
        "0" => {
            let measured = harness::measure(workload, seed, flags.seconds()?)?;
            let runs = Value::Arr(vec![measured.report]);
            println!("{}", record(seed, "runs", runs).render());
            harness::contract_line(measured.attempted, measured.failed, measured.metrics)
        }
        "1" => {
            // A failed digest or reconciliation check makes the traced run
            // an error, so a run that gets here has no failed operation.
            let run = suite::traced_run(seed, Some(workload))?;
            println!("{}", record(seed, "traced", run.report).render());
            harness::contract_line(run.attempted, 0, run.metrics)
        }
        other => return Err(format!("--trace {other:?} is not 0 or 1")),
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: perf compare A.json B.json".into());
    };
    let read = |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (table, regressed) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("list") => {
            print!("{}", registry::list());
            Ok(ExitCode::SUCCESS)
        }
        Some("manifest") => {
            print!("{}", registry::manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => cmd_driver(&args),
        _ => Err("usage: perf run|trace|compare|list|manifest, or \
                  perf --workload W --seed N --seconds S --trace 0|1"
            .into()),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("perf: {why}");
        ExitCode::FAILURE
    })
}
