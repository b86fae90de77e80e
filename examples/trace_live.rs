//! Flight-recorder demo: run A(4, 1) live on real OS threads with a
//! recording observability bundle attached, push the fault budget over
//! the line mid-run (two simultaneous equivocators — one more than
//! `f = 1` tolerates), and watch the watchdog fire the flight recorder:
//! the last window of merged, globally-ordered trace events is frozen
//! and printed as a table, followed by the recovery percentiles and the
//! run's metrics.
//!
//! Run with `cargo run --release --example trace_live`.

use synchronous_counting::core::CounterBuilder;
use synchronous_counting::protocol::Counter;
use synchronous_counting::runtime::obs::FlightConfig;
use synchronous_counting::runtime::{
    run_deterministic, run_live_obs, FaultEntry, FaultKind, FaultPlan, RuntimeConfig, RuntimeObs,
};

/// Nearest-rank percentile on a sorted sample.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let counter = CounterBuilder::corollary1(1, 2)?.build()?;
    println!(
        "A(4,1): n = 4, f = {}, counting mod {}",
        counter.resilience(),
        counter.modulus()
    );

    // Probe the fault-free run on the deterministic harness to learn
    // where this seed confirms stability; the live run below is the same
    // protocol on the same seed, so the burst lands after confirmation.
    let seed = 90;
    let probe_cfg = RuntimeConfig {
        period_ns: 2_000_000, // 2 ms rounds
        horizon: 200,
        seed,
        confirm: None,
        quorum: None,
        plan: FaultPlan::honest(4),
    };
    let stable_at = run_deterministic(&counter, &probe_cfg)?
        .first_stable_round
        .expect("the fault-free run stabilises");

    // Over budget: A(4,1) masks any single fault, so ONE equivocator
    // would be absorbed silently. TWO simultaneous equivocators leave
    // only two fresh board rows — below any majority quorum — and the
    // watchdog sees confirmed stability collapse.
    let burst_start = stable_at + 6;
    let burst_end = burst_start + 16;
    let plan = FaultPlan::new(
        4,
        (2..4)
            .map(|node| FaultEntry {
                node,
                from_round: burst_start,
                until_round: Some(burst_end),
                kind: FaultKind::Equivocate,
            })
            .collect(),
    )?;
    let config = RuntimeConfig {
        // Re-stabilisation after the burst takes a handful of rounds in
        // practice; 57 spare rounds keep the demo under a second.
        horizon: burst_end + 57,
        // The derived quorum `n − fault_count` is 2 here — no majority of
        // n = 4 — so pin the watchdog to 3 agreeing reports.
        quorum: Some(3),
        plan,
        ..probe_cfg
    };
    println!(
        "stable from round {stable_at}; equivocation burst on nodes 2 and 3 \
         over rounds [{burst_start}, {burst_end})\n"
    );

    // A recording bundle: per-thread event rings, a metrics registry, and
    // the flight recorder. The recorder keeps the first trigger only, and
    // on a loaded machine scheduler noise under the saturating reader can
    // trip the miss-storm alarm before the scripted burst — park that
    // threshold out of reach so the demo shows the stability-loss path.
    let obs = RuntimeObs::recording(FlightConfig {
        miss_storm: u64::MAX,
        ..FlightConfig::default()
    });
    let (report, reads) = run_live_obs(&counter, &config, &obs, |handle| {
        // Serve counter reads through the metered path while the burst
        // is raging — the meter feeds the `runtime.reads` counter.
        let metered = obs.meter_reads(handle);
        let mut reads = 0u64;
        while !metered.is_done() {
            metered.read();
            reads += 1;
        }
        reads
    })?;

    // --- the flight recorder's frozen window. -----------------------------
    assert!(
        obs.flight_fired(),
        "the over-budget burst must trip the watchdog"
    );
    let dump = obs.flight_dump().expect("fired recorder has a dump");
    print!("{}", dump.to_table());

    // --- recovery percentiles and the run's metrics. ----------------------
    let mut recovery_ns: Vec<u64> = report.recoveries.iter().map(|r| r.nanos).collect();
    recovery_ns.sort_unstable();
    println!(
        "\n{} recoveries; re-stabilisation p50 {:.1} ms, p90 {:.1} ms, max {:.1} ms",
        recovery_ns.len(),
        percentile(&recovery_ns, 0.5) as f64 / 1e6,
        percentile(&recovery_ns, 0.9) as f64 / 1e6,
        recovery_ns.last().copied().unwrap_or(0) as f64 / 1e6
    );

    let metrics = obs.metrics().expect("recording bundle snapshots");
    println!(
        "{} rounds in {:.1} ms; {} snapshot reads served, {} publishes, \
         {} deadline misses, {} events pushed",
        report.rounds,
        report.wall_nanos as f64 / 1e6,
        reads,
        metrics.counter("runtime.publishes").unwrap_or(0),
        metrics.counter("runtime.deadline_misses").unwrap_or(0),
        obs.collector().expect("recording bundle").total_pushed()
    );
    println!(
        "the same dump as JSON-lines starts: {}",
        dump.to_jsonl().lines().next().unwrap_or_default()
    );
    Ok(())
}
