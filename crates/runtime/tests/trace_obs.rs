//! Observability integration suite: instrumentation must be
//! observe-only (traced and untraced digests bit-identical), the flight
//! recorder must fire on real watchdog anomalies with a merged
//! globally-ordered dump, and the metered read path must count exactly.

use sc_core::{Algorithm, CounterBuilder};
use sc_protocol::Counter;
use sc_runtime::obs::{EventKind, FlightConfig, TriggerReason};
use sc_runtime::{
    run_deterministic, run_deterministic_obs, run_live_obs, FaultEntry, FaultKind, FaultPlan,
    RuntimeConfig, RuntimeObs,
};

const PERIOD_NS: u64 = 1_000_000;

fn a41() -> Algorithm {
    CounterBuilder::corollary1(1, 2)
        .expect("A(4,1) parameters are valid")
        .build()
        .expect("A(4,1) builds")
}

fn config(plan: FaultPlan, horizon: u64, seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        period_ns: PERIOD_NS,
        horizon,
        seed,
        confirm: None,
        quorum: None,
        plan,
    }
}

fn delayed_burst(node: usize, from: u64, until: u64) -> FaultPlan {
    FaultPlan::new(
        4,
        vec![FaultEntry {
            node,
            from_round: from,
            until_round: Some(until),
            kind: FaultKind::Delayed {
                jitter_permille: 2000, // up to 2 periods late: guaranteed misses
            },
        }],
    )
    .expect("valid plan")
}

/// Satellite: a recording bundle must not perturb the protocol — the
/// digest (and the whole report) is bit-identical traced vs untraced.
#[test]
fn traced_and_untraced_digests_bit_identical() {
    let algo = a41();
    let plans = vec![
        FaultPlan::honest(4),
        delayed_burst(0, 4, 20),
        FaultPlan::new(
            4,
            vec![FaultEntry {
                node: 1,
                from_round: 6,
                until_round: Some(22),
                kind: FaultKind::Equivocate,
            }],
        )
        .expect("valid plan"),
    ];
    for plan in plans {
        let cfg = config(plan, 60, 77);
        let untraced = run_deterministic(&algo, &cfg).expect("valid config");
        let obs = RuntimeObs::recording(FlightConfig::default());
        let traced = run_deterministic_obs(&algo, &cfg, &obs).expect("valid config");

        assert_eq!(
            untraced.digest, traced.digest,
            "tracing must not perturb the digest"
        );
        assert_eq!(untraced.trace, traced.trace);
        assert_eq!(untraced.missed, traced.missed);
        assert_eq!(untraced.events.len(), traced.events.len());
        assert_eq!(untraced.wall_nanos, traced.wall_nanos);

        // ... while the recording side actually recorded.
        let collector = obs.collector().expect("recording bundle");
        assert!(collector.total_pushed() > 0, "events must have been pushed");
        let metrics = obs.metrics().expect("recording bundle");
        assert!(
            metrics.counter("runtime.publishes").unwrap_or(0) > 0,
            "honest publishes must be counted"
        );
    }
}

/// The over-budget-burst anomaly: a run that confirmed stability loses
/// it to an in-window equivocator — the watchdog fires the flight
/// recorder, freezing the last window of merged events.
#[test]
fn flight_recorder_fires_on_overbudget_burst() {
    let algo = a41();

    // Probe where this seed confirms stability; until the burst begins
    // the faulted run below is identical to this fault-free one.
    let seed = 90;
    let probe =
        run_deterministic(&algo, &config(FaultPlan::honest(4), 200, seed)).expect("valid config");
    let stable_at = probe.first_stable_round.expect("fault-free run stabilises");

    // Over budget: A(4,1) tolerates f = 1, so two simultaneous
    // equivocators leave only two fresh board rows — below any majority
    // quorum — and confirmed stability is lost for the burst window.
    let burst_start = stable_at + 4;
    let burst_end = burst_start + 16;
    let horizon = burst_end + algo.stabilization_bound() * 4 + 24;
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
    )
    .expect("valid plan");
    let mut cfg = config(plan, horizon, seed);
    cfg.quorum = Some(3); // the default n − fault_count is no majority here

    let obs = RuntimeObs::recording(FlightConfig::default());
    run_deterministic_obs(&algo, &cfg, &obs).expect("valid config");

    assert!(
        obs.flight_fired(),
        "losing stability must fire the recorder"
    );
    let dump = obs.flight_dump().expect("fired recorder has a dump");
    assert_eq!(dump.reason, TriggerReason::StabilityLost);
    assert!(
        dump.round >= burst_start,
        "trigger at {} before the burst at {burst_start}",
        dump.round
    );
    assert_eq!(
        dump.first_round,
        dump.round
            .saturating_sub(FlightConfig::default().window_rounds)
    );
    assert!(!dump.stream.events.is_empty(), "window must hold events");
    // The frozen window is round-bounded and globally ordered.
    assert!(dump.stream.events.iter().all(|e| {
        e.event.round >= dump.first_round || e.event.kind == EventKind::FlightTrigger
    }));
    assert!(dump
        .stream
        .events
        .windows(2)
        .all(|w| w[0].event.t_ns <= w[1].event.t_ns));

    let jsonl = dump.to_jsonl();
    let header = jsonl.lines().next().expect("header line");
    assert!(header.contains("\"flight\":\"stability_lost\""), "{header}");
    assert_eq!(
        jsonl.lines().count(),
        1 + dump.stream.events.len(),
        "one JSON line per event plus the header"
    );
    assert!(dump.to_table().contains("stability_lost"));
}

/// The deadline-miss-storm anomaly: a laggard whose late publishes
/// charge misses across the cluster trips the storm threshold.
#[test]
fn flight_recorder_fires_on_miss_storm() {
    let algo = a41();
    let obs = RuntimeObs::recording(FlightConfig {
        miss_storm: 2,
        ..FlightConfig::default()
    });
    let report = run_deterministic_obs(&algo, &config(delayed_burst(0, 4, 20), 60, 13), &obs)
        .expect("valid config");

    assert!(obs.flight_fired(), "a miss storm must fire the recorder");
    let dump = obs.flight_dump().expect("fired recorder has a dump");
    assert_eq!(dump.reason, TriggerReason::MissStorm);
    assert!(dump
        .stream
        .events
        .iter()
        .any(|e| e.event.kind == EventKind::DeadlineMiss));

    // The metric agrees with the report's cumulative miss counters.
    let metrics = obs.metrics().expect("recording bundle");
    let total: u64 = report.missed.iter().sum();
    assert_eq!(metrics.counter("runtime.deadline_misses"), Some(total));
}

/// A bundle reused across runs keeps one lifetime miss counter: a
/// fault-free run after a run with misses must not read the earlier
/// misses as a storm of its own.
#[test]
fn reused_bundle_does_not_fire_a_stale_miss_storm() {
    let algo = a41();
    let obs = RuntimeObs::recording(FlightConfig {
        miss_storm: 8,
        max_unstable_rounds: 1_000_000,
        ..FlightConfig::default()
    });
    let bursty = run_deterministic_obs(&algo, &config(delayed_burst(0, 4, 20), 60, 13), &obs)
        .expect("valid config");
    let first_misses: u64 = bursty.missed.iter().sum();
    assert!(
        first_misses >= 8,
        "the burst must charge at least a storm's worth of misses in total, got {first_misses}"
    );
    assert!(
        !obs.flight_fired(),
        "no single observation of the burst run reaches the storm threshold"
    );

    let calm = run_deterministic_obs(&algo, &config(FaultPlan::honest(4), 60, 13), &obs)
        .expect("valid config");
    assert_eq!(
        calm.missed.iter().sum::<u64>(),
        0,
        "the fault-free run misses nothing"
    );
    assert!(
        !obs.flight_fired(),
        "a miss-free run fired {:?}",
        obs.flight_dump().map(|dump| (dump.reason, dump.round))
    );
    let metrics = obs.metrics().expect("recording bundle");
    assert_eq!(
        metrics.counter("runtime.deadline_misses"),
        Some(first_misses),
        "the counter stays cumulative over the bundle's lifetime"
    );
}

/// The metered read path counts every read exactly (batched flushes plus
/// the drop-time remainder) without touching the handle's single-load
/// read.
#[test]
fn metered_reads_count_exactly() {
    let algo = a41();
    let cfg = config(FaultPlan::honest(4), 30, 3);
    let obs = RuntimeObs::recording(FlightConfig::default());
    const READS: u64 = 10_001; // not a multiple of the flush batch

    let (report, observed) = run_live_obs(&algo, &cfg, &obs, |handle| {
        let metered = obs.meter_reads(handle);
        for _ in 0..READS {
            metered.read();
        }
        while !metered.is_done() {
            std::thread::yield_now();
        }
        metered.read() // one post-run read sees the final snapshot
    })
    .expect("valid config");

    assert_eq!(report.rounds, 30);
    let metrics = obs.metrics().expect("recording bundle");
    assert_eq!(
        metrics.counter("runtime.reads"),
        Some(READS + 1),
        "every read must be counted, remainder flushed on drop"
    );
    // The read itself still went through the snapshot cell.
    if report.first_stable_round.is_some() {
        assert!(observed.0 > 0, "stable run must have published a snapshot");
    }
}

/// Recovery measurements land in the `runtime.recovery_ns` histogram.
#[test]
fn recoveries_recorded_as_histogram() {
    let algo = a41();
    let horizon = 20 + algo.stabilization_bound() * 4 + 24;
    let obs = RuntimeObs::recording(FlightConfig::default());
    let report = run_deterministic_obs(&algo, &config(delayed_burst(1, 4, 20), horizon, 31), &obs)
        .expect("valid config");

    let metrics = obs.metrics().expect("recording bundle");
    let hist = metrics.hist("runtime.recovery_ns").expect("histogram");
    assert_eq!(hist.count, report.recoveries.len() as u64);
    if let Some(slowest) = report.recoveries.iter().map(|r| r.nanos).max() {
        assert_eq!(hist.max, slowest);
    }
}

/// A detached bundle records nothing and reports accordingly.
#[test]
fn detached_bundle_is_inert() {
    let obs = RuntimeObs::default();
    assert!(!obs.is_recording());
    assert!(!obs.flight_fired());
    assert!(obs.flight_dump().is_none());
    assert!(obs.metrics().is_none());
    assert!(obs.collector().is_none());
    assert!(!obs.trigger_manual(0));
}
