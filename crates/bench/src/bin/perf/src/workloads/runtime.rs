//! `runtime-replay`: the live runtime's node, mailbox and monitor code on
//! the virtual clock. A(4,1) runs the four-injector plan (Delayed, Crash,
//! Scripted, Equivocate; quorum 3) for 80 rounds under consecutive seeds,
//! so both sides of the seqlock and every injector path execute in every
//! replay — and, unlike a live run, the work repeats exactly.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_attack::{MoveSpace, Script};
use sc_core::Algorithm;
use sc_protocol::{Counter as _, SyncProtocol as _};
use sc_runtime::monitor::BoardSample;
use sc_runtime::{
    initial_states, run_deterministic, FaultEntry, FaultKind, FaultPlan, MailboxPlane, MonitorCore,
    NodeCore, OutputBoard, PublishAction, RoundClock as _, RoundSchedule, RunReport, RuntimeConfig,
    SnapshotCell, VirtualClock,
};

use super::{figure2, Body, Rep, Workload};
use crate::digest::{derive, Digest};
use crate::registry::{self, WorkloadDef};
use crate::trace::Tracer;

pub const HORIZON: u64 = 80;
pub const PERIOD_NS: u64 = 1_000_000;
const QUORUM: usize = 3;

/// `runtime_table`'s exact configuration (script seed, run seed): the run
/// every set-up replays first. It must end stable with at least two
/// recoveries and fold to the pinned monitor digest.
const ANCHOR_SCRIPT_SEED: u64 = 0x11fe;
const ANCHOR_RUN_SEED: u64 = 0xbead;
const ANCHOR_DIGEST: u64 = 0x5efd_a55f_9347_2d61;

/// The harness's private salt separating the scheduler's RNG stream from
/// the nodes' (`sc_runtime::harness`); the replica must shuffle alike.
const SCHED_SALT: u64 = 0x5eed_0dd5_ca1e_d0e5;

pub const SETUP_SPAN: &str = "runtime.setup";
pub const PUBLISH_SPAN: &str = "runtime.publish";
pub const SCRIPTED_SPAN: &str = "runtime.scripted";
pub const READ_STEP_SPAN: &str = "runtime.read_step";
pub const MONITOR_SPAN: &str = "runtime.monitor";
pub const LATE_SPAN: &str = "runtime.late";
pub const REPORT_SPAN: &str = "runtime.report";
/// Counts: nodes that published in the publish phase, nodes that read and
/// stepped.
pub const PUBLISHES_COUNT: &str = "runtime.publishes";
pub const READ_STEPS_COUNT: &str = "runtime.read_steps";

pub struct Runtime {
    plan: FaultPlan,
    base_seed: u64,
    gen_s: f64,
}

/// The four-injector plan around a seeded echo script for node 2. Bursts
/// overlap briefly into over-budget territory, so the monitor loses and
/// regains stability and every run has recoveries to pair.
pub fn plan(script_seed: u64) -> FaultPlan {
    let mut rng = SmallRng::seed_from_u64(script_seed);
    let script = Script::random(4, vec![2], 4, 0, &MoveSpace::echoes(2), &mut rng);
    let entry = |node, from_round, until_round, kind| FaultEntry {
        node,
        from_round,
        until_round,
        kind,
    };
    FaultPlan::new(
        4,
        vec![
            entry(
                0,
                10,
                Some(18),
                FaultKind::Delayed {
                    jitter_permille: 1500,
                },
            ),
            entry(1, 14, None, FaultKind::Crash),
            entry(2, 40, Some(48), FaultKind::Scripted(script)),
            entry(3, 44, Some(52), FaultKind::Equivocate),
        ],
    )
    .expect("the four-injector plan is well-formed")
}

pub fn config(plan: FaultPlan, seed: u64, period_ns: u64) -> RuntimeConfig {
    RuntimeConfig {
        period_ns,
        horizon: HORIZON,
        seed,
        confirm: None,
        // The plan wraps all four nodes, but outside the overlaps at most
        // one misbehaves at a time: three reports can agree again.
        quorum: Some(QUORUM),
        plan,
    }
}

impl Runtime {
    pub fn generate(seed: u64) -> Runtime {
        let start = Instant::now();
        Runtime {
            plan: plan(derive(seed, 0)),
            // Keeps `base + runs` far from overflow.
            base_seed: derive(seed, 1) >> 8,
            gen_s: start.elapsed().as_secs_f64(),
        }
    }
}

fn fold(report: &RunReport, digest: &mut Digest) -> Result<(), String> {
    if report.rounds != HORIZON || report.trace.len() != HORIZON as usize {
        return Err(format!(
            "run covered {} rounds and {} samples, expected {HORIZON}",
            report.rounds,
            report.trace.len()
        ));
    }
    digest.words([
        report.digest,
        report.first_stable_round.map_or(0, |r| r + 1),
        report.events.len() as u64,
        report.recoveries.len() as u64,
        report.wall_nanos,
    ]);
    digest.words(report.missed.iter().copied());
    Ok(())
}

/// `run_deterministic` rebuilt from the public pieces it is made of, one
/// span per phase of the round timetable.
fn replica_run(
    algo: &Algorithm,
    config: &RuntimeConfig,
    tracer: &mut Tracer,
) -> Result<RunReport, String> {
    let n = algo.n();
    let setup = tracer.enter(SETUP_SPAN);
    let sched = RoundSchedule::new(config.period_ns);
    let confirm = MonitorCore::default_confirm(algo.modulus());
    let plane = MailboxPlane::new(n, algo.state_bits());
    let board = OutputBoard::new(n);
    let snapshot = SnapshotCell::new();
    let clock = VirtualClock::new();
    let mut sched_rng = SmallRng::seed_from_u64(config.seed ^ SCHED_SALT);
    let mut cores: Vec<Option<NodeCore<'_, Algorithm>>> = initial_states(algo, config.seed)
        .into_iter()
        .enumerate()
        .map(|(id, state)| {
            let fault = config.plan.entry_for(id).cloned();
            Some(NodeCore::new(algo, id, state, config.seed, fault))
        })
        .collect();
    let mut crashed_missed: Vec<Option<u64>> = vec![None; n];
    let mut monitor = MonitorCore::new(QUORUM, algo.modulus(), confirm);
    let mut trace = Vec::with_capacity(config.horizon as usize);
    let read_offset_ns = sched.read_point(0) - sched.slot_start(0);
    tracer.exit(setup);

    for round in 0..config.horizon {
        // Phase 1: on-time publishes, in a seeded shuffle of node order.
        let phase = tracer.enter(PUBLISH_SPAN);
        clock.wait_until(sched.slot_start(round));
        let mut order: Vec<usize> = (0..n).filter(|&i| cores[i].is_some()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, sched_rng.random_range(0..=i));
        }
        let mut observers: Vec<usize> = Vec::new();
        let mut late: Vec<(usize, u64, Vec<u64>, u64)> = Vec::new();
        let mut published = 0u64;
        for &id in &order {
            let core = cores[id].as_mut().expect("alive");
            match core.action(round, sched.period_ns()) {
                PublishAction::Honest => {
                    core.publish_honest(&plane, &board, round);
                    published += 1;
                }
                PublishAction::Mute => {}
                PublishAction::Crash => {
                    core.publish_crash(&plane, round);
                    published += 1;
                    crashed_missed[id] = Some(core.missed());
                    cores[id] = None;
                }
                PublishAction::Delayed { delay_ns } if delay_ns <= read_offset_ns => {
                    core.publish_honest(&plane, &board, round);
                    published += 1;
                }
                PublishAction::Delayed { delay_ns } => {
                    let (payload, output) = core.capture_publish();
                    late.push((id, delay_ns, payload, output));
                }
                PublishAction::Equivocate => {
                    core.publish_equivocate(&plane, round);
                    published += 1;
                }
                PublishAction::Scripted => observers.push(id),
            }
        }
        tracer.exit(phase);
        tracer.count(PUBLISHES_COUNT, published);

        // Phase 2: observing injectors at the observe point.
        if !observers.is_empty() {
            let phase = tracer.enter(SCRIPTED_SPAN);
            observers.sort_unstable();
            clock.wait_until(sched.obs_point(round));
            for id in observers {
                let core = cores[id].as_mut().expect("alive");
                core.observe_for_script(&plane, round);
                core.publish_scripted(&plane, round);
            }
            tracer.exit(phase);
        }

        // Phase 3: reads and transitions.
        let phase = tracer.enter(READ_STEP_SPAN);
        clock.wait_until(sched.read_point(round));
        let mut stepped = 0u64;
        for core in cores.iter_mut().flatten() {
            core.read_and_step(&plane, round);
            stepped += 1;
        }
        tracer.exit(phase);
        tracer.count(READ_STEPS_COUNT, stepped);

        // Phase 4: the monitor's board sample.
        let phase = tracer.enter(MONITOR_SPAN);
        clock.wait_until(sched.sample_point(round));
        let sample: BoardSample = (0..n).map(|i| board.sample(i)).collect();
        monitor.observe(round, &sample, clock.now(), &snapshot);
        trace.push((round, sample));
        tracer.exit(phase);

        // Phase 5: deadline-missing publishes land after reads and sample.
        if !late.is_empty() {
            let phase = tracer.enter(LATE_SPAN);
            late.sort_unstable_by_key(|&(id, delay_ns, ..)| (delay_ns, id));
            for (id, delay_ns, payload, output) in late {
                clock.wait_until(sched.slot_start(round) + delay_ns);
                NodeCore::<Algorithm>::deliver_captured(
                    &plane, &board, id, round, &payload, output,
                );
            }
            tracer.exit(phase);
        }
    }

    let phase = tracer.enter(REPORT_SPAN);
    let missed: Vec<u64> = (0..n)
        .map(|id| match &cores[id] {
            Some(core) => core.missed(),
            None => crashed_missed[id].unwrap_or(0),
        })
        .collect();
    let burst_ends: Vec<u64> = config
        .plan
        .entries()
        .iter()
        .filter_map(|e| e.until_round)
        .collect();
    let digest = monitor.digest();
    let events = monitor.into_events();
    let recoveries = MonitorCore::recoveries(&events, &burst_ends, |r| sched.slot_start(r));
    let report = RunReport {
        rounds: config.horizon,
        first_stable_round: MonitorCore::first_stable_round(&events),
        events,
        recoveries,
        missed,
        digest,
        wall_nanos: clock.now(),
        trace,
    };
    tracer.exit(phase);
    Ok(report)
}

impl Workload for Runtime {
    fn def(&self) -> &'static WorkloadDef {
        registry::workload(registry::RUNTIME).expect("registered")
    }

    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn session(&self, body: &mut Body<'_>) -> Result<f64, String> {
        let runs = self.def().units / HORIZON;
        let start = Instant::now();
        let algo = figure2(0);
        let anchor = run_deterministic(
            &algo,
            &config(plan(ANCHOR_SCRIPT_SEED), ANCHOR_RUN_SEED, PERIOD_NS),
        )
        .map_err(|e| e.to_string())?;
        let mut config = config(self.plan.clone(), self.base_seed, PERIOD_NS);
        let setup_s = start.elapsed().as_secs_f64();
        let ends_stable = anchor.events.last().is_some_and(|e| e.stable);
        if !ends_stable || anchor.recoveries.len() < 2 || anchor.digest != ANCHOR_DIGEST {
            return Err(format!(
                "anchor run: ends stable {ends_stable}, {} recoveries, digest 0x{:016x}",
                anchor.recoveries.len(),
                anchor.digest
            ));
        }
        body(&mut |tracer: Option<&mut Tracer>| {
            let mut digest = Digest::new();
            let mut tracer = tracer;
            for run in 0..runs {
                config.seed = self.base_seed + run;
                let report = match tracer.as_deref_mut() {
                    None => run_deterministic(&algo, &config).map_err(|e| e.to_string())?,
                    Some(tracer) => replica_run(&algo, &config, tracer)?,
                };
                fold(&report, &mut digest)?;
            }
            Ok(Rep {
                units: runs * HORIZON,
                digest: digest.finish(),
            })
        });
        Ok(setup_s)
    }
}
