//! The closed-loop measurement harness: one process, fixed work per
//! repetition, tracing off. Every repetition's outputs are checked, and
//! every report carries its provenance.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::time::Instant;

use crate::json::{hex, obj, Value};
use crate::registry::{self, MetricDef, WorkloadDef};
use crate::stats;
use crate::workloads::{self, Rep, RepFn};

/// Refuses unoptimised builds: a debug-profile number is not a
/// measurement of this program.
pub fn check_profile(debug_assertions: bool) -> Result<(), String> {
    if debug_assertions {
        return Err("perf refuses to measure a build with debug_assertions; \
                    build with --release"
            .into());
    }
    Ok(())
}

/// Refuses to record a parallel figure on fewer cores than threads.
pub fn check_cores(nproc: usize, threads: usize) -> Result<(), String> {
    if nproc < threads {
        return Err(format!(
            "{threads} threads requested but only {nproc} core(s) visible: \
             a T={threads} figure measured here would be T=1 measured twice"
        ));
    }
    Ok(())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the process-wide `sc-exec` budget to one thread, whatever the
/// caller's environment says, so kernel workloads measure kernels. Must
/// run before the first `sc-exec` call: the budget is cached on first use.
pub fn pin_exec_budget() -> Result<(), String> {
    std::env::set_var("SC_THREADS", "1");
    match sc_exec::threads() {
        1 => Ok(()),
        n => Err(format!(
            "sc-exec budget is {n}, not 1: it was read before the pin"
        )),
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
}

/// Where a number came from: without these columns it cannot be compared
/// with another.
pub fn provenance(seed: u64) -> Value {
    obj([
        (
            "commit",
            command_line("git", &["describe", "--always", "--dirty", "--abbrev=12"])
                .unwrap_or_else(|| "unknown (not a git checkout)".into())
                .into(),
        ),
        ("nproc", nproc().into()),
        ("sc_threads", sc_exec::threads().into()),
        ("parallel_threads", registry::PARALLEL_THREADS.into()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        (
            "rustc",
            command_line("rustc", &["--version"])
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        ("seed", hex(seed)),
    ])
}

/// Every key a provenance block must carry.
#[cfg(test)]
const PROVENANCE_KEYS: [&str; 7] = [
    "commit",
    "nproc",
    "sc_threads",
    "parallel_threads",
    "profile",
    "rustc",
    "seed",
];

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// Process CPU seconds so far, user and system, all threads, at the
/// clock's nanosecond resolution (`/proc/self/stat` counts 10 ms ticks,
/// 2% of one repetition).
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the C
    // library expects, and the call writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(status, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size so far in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One repetition through the program's driver, timed from outside.
pub struct Timed {
    pub outcome: Result<Rep, String>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs one repetition through the program's driver, turning a panic
/// into a failed repetition.
pub fn guarded(rep: &mut RepFn<'_>) -> Timed {
    let (start, cpu_start) = (Instant::now(), cpu_seconds());
    let outcome = catch_unwind(AssertUnwindSafe(|| rep(None)))
        .unwrap_or_else(|_| Err("repetition panicked".into()));
    Timed {
        outcome,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu_start,
    }
}

/// Timed repetitions of a `seconds`-second run: fixed by the workload's
/// nominal repetition time, not by how fast this build runs it, so a
/// faster change is not measured on more samples than its parent.
pub fn repetitions(def: &WorkloadDef, seconds: f64) -> usize {
    ((seconds / def.nominal_rep_s).round() as usize).max(registry::MIN_REPS)
}

/// The digest a run at `seed` must produce, when one is pinned.
pub fn golden(def: &WorkloadDef, seed: u64) -> Option<u64> {
    match (def.golden_for_every_seed, seed) {
        (true, _) | (false, registry::DEFAULT_SEED) => Some(def.golden[0]),
        (false, registry::HELD_OUT_SEED) => Some(def.golden[1]),
        _ => None,
    }
}

/// Checks one repetition against the pinned unit count, the digest of the
/// repetitions before it, and the golden digest.
pub fn check_rep(
    def: &WorkloadDef,
    outcome: Result<Rep, String>,
    expected: &mut Option<u64>,
    golden: Option<u64>,
) -> Result<(), String> {
    let rep = outcome?;
    if rep.units != def.units {
        return Err(format!(
            "{} work units, {} pinned: the workload changed",
            rep.units, def.units
        ));
    }
    let first = *expected.get_or_insert(rep.digest);
    if rep.digest != first {
        return Err(format!(
            "result_digest 0x{:016x} differs from the first repetition's 0x{first:016x}",
            rep.digest
        ));
    }
    match golden {
        Some(golden) if golden != rep.digest => Err(format!(
            "result_digest 0x{:016x} differs from the golden 0x{golden:016x}",
            rep.digest
        )),
        _ => Ok(()),
    }
}

/// One workload measured end to end.
pub struct Measurement {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics, in registry order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// The full record: timings with spread, digest, provenance-side
    /// figures.
    pub report: Value,
}

fn summary_json(samples: &[f64]) -> Value {
    let s = stats::summarize(samples);
    let mut pairs = vec![
        ("n".to_string(), s.n.into()),
        ("median".to_string(), s.median.into()),
        ("q1".to_string(), s.q1.into()),
        ("q3".to_string(), s.q3.into()),
        ("min".to_string(), s.min.into()),
        ("max".to_string(), s.max.into()),
    ];
    // A tail percentile is printed only when ten samples lie beyond it,
    // which takes a hundred repetitions: a 12 s run never has one.
    if let Some(p) = stats::reportable_percentile(s.n) {
        pairs.push(("tail_percentile".to_string(), p.into()));
        pairs.push(("tail".to_string(), stats::percentile(samples, p).into()));
    }
    // The order shows drift and bursts that a summary hides.
    if samples.len() <= 64 {
        pairs.push(("samples".to_string(), samples.to_vec().into()));
    }
    Value::Obj(pairs)
}

/// Measures `name` at `seed`: one session of [`registry::WARM_UPS`]
/// warm-up repetitions and [`repetitions`] timed ones of identical work.
/// Before every timed repetition the program's objects are built once more
/// and dropped, so the set-up samples are spread over the run like the
/// repetitions are, and `setup_s` is the fastest of them. `Err` means the
/// workload could not be measured at all (unknown name, failing set-up, no
/// timed repetition without a failure); failing repetitions are counted,
/// not fatal.
///
/// The gated timings are the *fastest whole repetition* (its wall time
/// and its CPU time) and the fastest whole set-up. The box is two cores of
/// a shared host whose neighbours only ever add time, for seconds or for
/// minutes; the median repetition moves with them, the fastest one is a
/// time the program did run in and moves less (`README.md` has the
/// measured spreads). Median and quartiles are reported beside it.
pub fn measure(name: &str, seed: u64, seconds: f64) -> Result<Measurement, String> {
    let workload =
        workloads::generate(name, seed).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let def = workload.def();
    check_cores(nproc(), threads_of(def))?;
    let golden = golden(def, seed);
    let reps = repetitions(def, seconds);

    let mut setup_s = Vec::with_capacity(reps + 1);
    let mut setup_failure = None;
    let (mut rep_s, mut rep_cpu_s) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut warm_up_s = Vec::with_capacity(registry::WARM_UPS);
    let mut failures: Vec<String> = Vec::new();
    let mut failed_reps = 0u64;
    let mut digest = None;
    let own_setup_s = workload.session(&mut |rep| {
        for k in 0..registry::WARM_UPS + reps {
            if k >= registry::WARM_UPS {
                match workload.session(&mut |_rep| {}) {
                    Ok(seconds) => setup_s.push(seconds),
                    Err(why) => setup_failure = Some(why),
                }
            }
            let timed = guarded(rep);
            match check_rep(def, timed.outcome, &mut digest, golden) {
                Ok(()) if k < registry::WARM_UPS => warm_up_s.push(timed.wall_s),
                Ok(()) => {
                    rep_s.push(timed.wall_s);
                    rep_cpu_s.push(timed.cpu_s);
                }
                Err(why) => {
                    failed_reps += 1;
                    if failures.len() < 4 {
                        failures.push(why);
                    }
                }
            }
        }
    })?;
    setup_s.push(own_setup_s);
    if let Some(why) = setup_failure {
        return Err(format!("{name}: set-up failed mid-run: {why}"));
    }
    if rep_s.is_empty() {
        return Err(format!(
            "{name}: every repetition failed; first: {}",
            failures.first().map_or("?", String::as_str)
        ));
    }

    let wall = stats::summarize(&rep_s);
    let fastest = rep_s
        .iter()
        .position(|&s| s == wall.min)
        .expect("the minimum is one of the samples");
    let attempted = def.units * (registry::WARM_UPS + reps) as u64;
    let failed = def.units * failed_reps;
    let values = [
        def.units as f64 / wall.min,
        rep_cpu_s[fastest],
        stats::summarize(&setup_s).min,
        peak_rss_mb(),
        (attempted - failed) as f64 / attempted as f64,
    ];
    let metrics: Vec<(&'static MetricDef, f64)> = registry::END_TO_END.iter().zip(values).collect();
    let report = obj([
        ("workload", def.name.into()),
        ("unit", def.unit.into()),
        ("units_per_rep", def.units.into()),
        ("threads", threads_of(def).into()),
        ("warm_ups", registry::WARM_UPS.into()),
        ("rep_s", summary_json(&rep_s)),
        ("rep_cpu_s", summary_json(&rep_cpu_s)),
        ("setup_s", summary_json(&setup_s)),
        (
            "cold_surplus_s",
            warm_up_s
                .first()
                .map_or(Value::Null, |cold| (cold - wall.median).into()),
        ),
        ("gen_s", workload.gen_s().into()),
        ("result_digest", digest.map_or(Value::Null, hex)),
        (
            "golden",
            match golden {
                Some(g) => hex(g),
                None => "none pinned for this seed: invariants only".into(),
            },
        ),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("fail_share", (failed as f64 / attempted as f64).into()),
        ("failures", failures.into()),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|(m, v)| (m.name.to_string(), (*v).into()))
                    .collect(),
            ),
        ),
    ]);
    Ok(Measurement {
        attempted,
        failed,
        metrics,
        report,
    })
}

/// Threads the workload's driver runs on.
pub fn threads_of(def: &WorkloadDef) -> usize {
    if def.name == registry::CAMPAIGN {
        registry::CAMPAIGN_THREADS
    } else {
        1
    }
}

/// The line the driver reads: `correct`, `attempted`, `failed`, `metrics`.
pub fn contract_line(
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (&'static MetricDef, f64)>,
) -> String {
    obj([
        ("correct", (failed == 0).into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        (
            "metrics",
            Value::Obj(
                metrics
                    .into_iter()
                    .map(|(m, v)| {
                        (
                            m.name.to_string(),
                            obj([("value", v.into()), ("unit", m.unit.into())]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_profile_and_missing_cores_fail_loudly() {
        assert!(check_profile(false).is_ok());
        let why = check_profile(true).unwrap_err();
        assert!(why.contains("debug_assertions") && why.contains("--release"));

        assert!(check_cores(2, 2).is_ok());
        assert!(check_cores(8, 2).is_ok());
        let why = check_cores(1, 2).unwrap_err();
        assert!(why.contains("only 1 core") && why.contains("T=1 measured twice"));
    }

    #[test]
    fn provenance_block_is_complete() {
        let block = provenance(registry::DEFAULT_SEED);
        for key in PROVENANCE_KEYS {
            let value = block.get(key).unwrap_or_else(|| panic!("missing {key}"));
            assert_ne!(*value, Value::Null, "{key}");
        }
        assert_eq!(block.get("seed"), Some(&hex(registry::DEFAULT_SEED)));
        assert_eq!(
            block.get("nproc").and_then(Value::as_f64),
            Some(nproc() as f64)
        );
    }

    #[test]
    fn process_counters_read_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn a_repetition_fails_on_error_unit_drift_or_digest_mismatch() {
        let def = &registry::WORKLOADS[0];
        let good = Rep {
            units: def.units,
            digest: 7,
        };
        let mut expected = None;
        assert!(check_rep(def, Ok(good), &mut expected, None).is_ok());
        assert_eq!(expected, Some(7));
        assert!(check_rep(def, Ok(good), &mut expected, Some(7)).is_ok());

        let drift = check_rep(def, Ok(Rep { digest: 8, ..good }), &mut expected, None);
        assert!(drift.unwrap_err().contains("first repetition"));
        let golden = check_rep(def, Ok(good), &mut expected, Some(9));
        assert!(golden.unwrap_err().contains("golden"));
        let units = check_rep(def, Ok(Rep { units: 1, ..good }), &mut expected, None);
        assert!(units.unwrap_err().contains("the workload changed"));
        let error = check_rep(def, Err("boom".into()), &mut expected, None);
        assert_eq!(error.unwrap_err(), "boom");

        let mut panicking = |_: Option<&mut crate::trace::Tracer>| -> Result<Rep, String> {
            panic!("inside the program")
        };
        let timed = guarded(&mut panicking);
        assert_eq!(timed.outcome.unwrap_err(), "repetition panicked");
        assert!(timed.wall_s >= 0.0 && timed.cpu_s >= 0.0);
    }

    #[test]
    fn repetition_count_follows_the_seconds_and_never_the_build() {
        let def = registry::workload(registry::RUNTIME).unwrap();
        assert_eq!(repetitions(def, 12.0), 12);
        assert_eq!(repetitions(def, 1.0), registry::MIN_REPS);
        let def = registry::workload(registry::SWEEP).unwrap();
        assert_eq!(repetitions(def, 12.0), 9);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = contract_line(10, 0, registry::END_TO_END.iter().map(|m| (m, 1.25)));
        let parsed = crate::json::parse(&line).unwrap();
        let Value::Obj(pairs) = &parsed else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
        let setup = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.25));
    }
}
