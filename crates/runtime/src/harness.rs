//! The deterministic harness: the same node logic, mailbox plane, and
//! monitor as the live driver, driven single-threaded on a virtual
//! clock with a seeded scheduler — every live scenario replayed
//! bit-reproducibly in CI.
//!
//! Per round the harness executes the live timetable's phases in order:
//! on-time publishes (honest, equivocate, crash — in a seeded shuffle of
//! node order), then the observing injectors (scripted) at the observe
//! point, then every surviving node's read + step at the read point,
//! then the monitor's board sample, and finally any `Delayed` publishes
//! whose jitter pushed them past the read deadline — landing after the
//! reads and the sample, exactly as a late publish does live. Two runs
//! with the same config produce identical reports, digests included.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_attack::RawState;
use sc_protocol::{Counter, PreparedProtocol};

use crate::clock::{RoundClock, VirtualClock};
use crate::live::{RunReport, RuntimeConfig};
use crate::mailbox::{MailboxPlane, OutputBoard, SnapshotCell};
use crate::monitor::{BoardSample, MonitorCore};
use crate::node::{initial_states, NodeCore, PublishAction};
use crate::trace::{NodeTrace, RuntimeObs};
use crate::ParamError;

/// Salt separating the scheduler's RNG stream from the nodes'.
const SCHED_SALT: u64 = 0x5eed_0dd5_ca1e_d0e5;

/// Run `config` deterministically. Same config ⇒ bit-identical report.
pub fn run_deterministic<P>(algo: &P, config: &RuntimeConfig) -> Result<RunReport, ParamError>
where
    P: Counter + PreparedProtocol + RawState<P::State>,
{
    run_deterministic_obs(algo, config, &RuntimeObs::default())
}

/// [`run_deterministic`] with an observability bundle attached.
///
/// Instrumentation is observe-only: tracers read protocol state, never
/// feed it, and timestamps come from the same virtual clock the phases
/// already advance. The report — digest included — is therefore
/// bit-identical whether `obs` is recording, detached, or compiled out.
pub fn run_deterministic_obs<P>(
    algo: &P,
    config: &RuntimeConfig,
    obs: &RuntimeObs,
) -> Result<RunReport, ParamError>
where
    P: Counter + PreparedProtocol + RawState<P::State>,
{
    let (sched, quorum, confirm) = config.resolve(algo)?;
    let n = algo.n();
    let horizon = config.horizon;
    let plane = MailboxPlane::new(n, algo.state_bits());
    let board = OutputBoard::new(n);
    let snapshot = SnapshotCell::new();
    let clock = VirtualClock::new();
    let mut sched_rng = SmallRng::seed_from_u64(config.seed ^ SCHED_SALT);

    let mut cores: Vec<Option<NodeCore<'_, P>>> = initial_states(algo, config.seed)
        .into_iter()
        .enumerate()
        .map(|(id, state)| {
            Some(NodeCore::new(
                algo,
                id,
                state,
                config.seed,
                config.plan.entry_for(id).cloned(),
            ))
        })
        .collect();
    let mut crashed_missed: Vec<Option<u64>> = vec![None; n];
    let mut tracers: Vec<NodeTrace> = (0..n).map(|id| obs.node_tracer(id)).collect();
    let mut mtrace = obs.monitor_tracer();

    let mut monitor = MonitorCore::new(quorum, algo.modulus(), confirm);
    let mut trace = Vec::with_capacity(horizon as usize);
    let read_offset_ns = sched.read_point(0) - sched.slot_start(0);
    // Per-round scratch, reused from round to round.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut observers: Vec<usize> = Vec::new();
    let mut late: Vec<(usize, u64, Vec<u64>, u64)> = Vec::new();

    for round in 0..horizon {
        clock.wait_until(sched.slot_start(round));

        // Phase 1: on-time publishes, seeded-shuffled node order.
        order.clear();
        order.extend((0..n).filter(|&i| cores[i].is_some()));
        shuffle(&mut order, &mut sched_rng);
        observers.clear();
        for &id in &order {
            let core = cores[id].as_mut().expect("alive");
            let tracer = &mut tracers[id];
            tracer.round_open(|| clock.now(), round);
            match core.action(round, sched.period_ns()) {
                PublishAction::Honest => {
                    core.publish_honest(&plane, &board, round);
                    tracer.publish(|| clock.now(), round, || core.output());
                }
                PublishAction::Mute => tracer.fault_active(|| clock.now(), round, 1),
                PublishAction::Crash => {
                    core.publish_crash(&plane, round);
                    tracer.fault_active(|| clock.now(), round, 0);
                    crashed_missed[id] = Some(core.missed());
                    cores[id] = None; // dead for the rest of the run
                }
                PublishAction::Delayed { delay_ns } => {
                    tracer.fault_active(|| clock.now(), round, 2);
                    if delay_ns <= read_offset_ns {
                        core.publish_honest(&plane, &board, round);
                        tracer.publish_late(|| clock.now(), round, delay_ns);
                    } else {
                        let (payload, output) = core.capture_publish();
                        late.push((id, delay_ns, payload, output));
                    }
                }
                PublishAction::Equivocate => {
                    core.publish_equivocate(&plane, round);
                    tracer.fault_active(|| clock.now(), round, 3);
                }
                PublishAction::Scripted => observers.push(id),
            }
        }

        // Phase 2: observing injectors, ascending id.
        observers.sort_unstable();
        clock.wait_until(sched.obs_point(round));
        for &id in &observers {
            let core = cores[id].as_mut().expect("alive");
            core.observe_for_script(&plane, round);
            core.publish_scripted(&plane, round);
            tracers[id].fault_active(|| clock.now(), round, 4);
        }

        // Phase 3: reads + transitions. Plane content is frozen for the
        // round, so per-node order is immaterial; ascending for clarity.
        clock.wait_until(sched.read_point(round));
        for id in 0..n {
            if let Some(core) = cores[id].as_mut() {
                core.read_and_step(&plane, round);
                tracers[id].read_step(|| clock.now(), round, core.missed());
            }
        }

        // Phase 4: monitor sample.
        clock.wait_until(sched.sample_point(round));
        let sample: BoardSample = (0..n).map(|i| board.sample(i)).collect();
        monitor.observe(round, &sample, clock.now(), &snapshot);
        mtrace.observe(|| clock.now(), round, &monitor);
        trace.push((round, sample));

        // Phase 5: deadline-missing publishes land last — after every
        // read and the monitor's sample, like a live straggler.
        late.sort_unstable_by_key(|&(id, delay_ns, ..)| (delay_ns, id));
        for (id, delay_ns, payload, output) in late.drain(..) {
            clock.wait_until(sched.slot_start(round) + delay_ns);
            NodeCore::<P>::deliver_captured(&plane, &board, id, round, &payload, output);
            tracers[id].publish_late(|| clock.now(), round, delay_ns);
        }
    }

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
    obs.record_recoveries(&recoveries);
    Ok(RunReport {
        rounds: horizon,
        first_stable_round: MonitorCore::first_stable_round(&events),
        events,
        recoveries,
        missed,
        digest,
        wall_nanos: clock.now(),
        trace,
    })
}

/// Fisher–Yates over the shim RNG (the shim has no `shuffle`).
fn shuffle(items: &mut [usize], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}
