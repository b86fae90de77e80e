//! The wall-clock driver: n OS threads run the protocol for real.
//!
//! One thread per node self-clocks through the round timetable, a
//! monitor thread samples the output board and maintains the read-path
//! snapshot, and the caller's `serve` closure runs concurrently with a
//! [`CounterHandle`] — the shape of an external service reading the
//! converged counter under load. Nothing ever blocks on a peer: slow or
//! dead nodes surface as missed messages, which the protocol absorbs as
//! in-budget faults.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use sc_attack::RawState;
use sc_protocol::{Counter, PreparedProtocol};

use crate::clock::{RoundClock, RoundSchedule, WallClock};
use crate::mailbox::{CounterHandle, MailboxPlane, OutputBoard, SnapshotCell, OUTPUT_LIMIT};
use crate::monitor::{BoardSample, MonitorCore, Recovery, StabilityEvent};
use crate::node::{initial_states, NodeCore, PublishAction};
use crate::plan::FaultPlan;
use crate::trace::{MonitorTrace, NodeTrace, RuntimeObs};
use crate::ParamError;

/// Parameters of one runtime run, shared by the live driver and the
/// deterministic harness.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Round period in nanoseconds (the live run's real-time budget per
    /// round; the harness's virtual timetable).
    pub period_ns: u64,
    /// Number of rounds to run.
    pub horizon: u64,
    /// Seed for initial states, per-node RNGs, and the harness scheduler.
    pub seed: u64,
    /// Consecutive good observations before the monitor declares
    /// stability; default [`MonitorCore::default_confirm`].
    pub confirm: Option<u64>,
    /// Board reports that must agree before a value is trusted; default
    /// `n − f` where `f` is the plan's fault count.
    pub quorum: Option<usize>,
    /// The injection schedule.
    pub plan: FaultPlan,
}

impl RuntimeConfig {
    /// An all-honest run.
    pub fn honest(n: usize, period_ns: u64, horizon: u64, seed: u64) -> RuntimeConfig {
        RuntimeConfig {
            period_ns,
            horizon,
            seed,
            confirm: None,
            quorum: None,
            plan: FaultPlan::honest(n),
        }
    }

    pub(crate) fn resolve<P: Counter>(
        &self,
        algo: &P,
    ) -> Result<(RoundSchedule, usize, u64), ParamError> {
        let n = algo.n();
        if self.plan.n() != n {
            return Err(ParamError::constraint(format!(
                "fault plan is for n = {} but the protocol has n = {n}",
                self.plan.n()
            )));
        }
        if self.period_ns == 0 || self.horizon == 0 {
            return Err(ParamError::constraint(
                "period_ns and horizon must be positive",
            ));
        }
        if algo.modulus() >= OUTPUT_LIMIT {
            return Err(ParamError::constraint(format!(
                "modulus {} does not fit the packed snapshot ({OUTPUT_LIMIT} max)",
                algo.modulus()
            )));
        }
        let quorum = self.quorum.unwrap_or(n - self.plan.fault_count());
        if quorum == 0 || quorum > n || 2 * quorum <= n {
            return Err(ParamError::constraint(format!(
                "quorum {quorum} is not a majority of n = {n}"
            )));
        }
        let confirm = self
            .confirm
            .unwrap_or_else(|| MonitorCore::default_confirm(algo.modulus()));
        Ok((RoundSchedule::new(self.period_ns), quorum, confirm))
    }
}

/// Everything a run reports back.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Rounds the timetable covered.
    pub rounds: u64,
    /// First round of the first confirmed stable period.
    pub first_stable_round: Option<u64>,
    /// Stability transitions in observation order.
    pub events: Vec<StabilityEvent>,
    /// Re-stabilisation measurements per bounded disruption burst.
    pub recoveries: Vec<Recovery>,
    /// Cumulative missed messages per node (a crashed node stops
    /// counting when it dies).
    pub missed: Vec<u64>,
    /// FNV-1a digest of the monitor's agreed-value stream —
    /// bit-reproducibility witness under the deterministic harness.
    pub digest: u64,
    /// Total run time in (wall or virtual) nanoseconds.
    pub wall_nanos: u64,
    /// Per observation round: the board sample the monitor saw.
    pub trace: Vec<(u64, BoardSample)>,
}

impl RunReport {
    /// The honest nodes' posted outputs at observation round `r`, if
    /// every node outside `faulty` posted a round-`r` report.
    pub fn honest_row(&self, r: usize, faulty: &[usize]) -> Option<Vec<u64>> {
        let (round, sample) = &self.trace[r];
        let mut row = Vec::new();
        for (node, report) in sample.iter().enumerate() {
            if faulty.contains(&node) {
                continue;
            }
            match report {
                Some((tag, value)) if tag == round => row.push(*value),
                _ => return None,
            }
        }
        Some(row)
    }
}

/// Run the protocol live and serve reads while it runs.
///
/// `serve` receives a [`CounterHandle`] on the calling thread while the
/// node and monitor threads run; it conventionally loops until
/// [`CounterHandle::is_done`]. Its return value is passed through.
pub fn run_live<P, F, R>(
    algo: &P,
    config: &RuntimeConfig,
    serve: F,
) -> Result<(RunReport, R), ParamError>
where
    P: Counter + PreparedProtocol + RawState<P::State> + Sync,
    P::State: Send,
    P::RoundPrep: Send,
    F: FnOnce(CounterHandle<'_>) -> R,
{
    run_live_obs(algo, config, &RuntimeObs::default(), serve)
}

/// [`run_live`] with an observability bundle attached. With a detached
/// (default) bundle every instrumentation call short-circuits at one
/// `None` check; instrumentation is observe-only either way, so the
/// report is identical.
pub fn run_live_obs<P, F, R>(
    algo: &P,
    config: &RuntimeConfig,
    obs: &RuntimeObs,
    serve: F,
) -> Result<(RunReport, R), ParamError>
where
    P: Counter + PreparedProtocol + RawState<P::State> + Sync,
    P::State: Send,
    P::RoundPrep: Send,
    F: FnOnce(CounterHandle<'_>) -> R,
{
    let (sched, quorum, confirm) = config.resolve(algo)?;
    let n = algo.n();
    let horizon = config.horizon;
    let plane = MailboxPlane::new(n, algo.state_bits());
    let board = OutputBoard::new(n);
    let snapshot = SnapshotCell::new();
    let done = AtomicBool::new(false);
    let states = initial_states(algo, config.seed);

    let mut cores: Vec<NodeCore<'_, P>> = states
        .into_iter()
        .enumerate()
        .map(|(id, state)| {
            NodeCore::new(
                algo,
                id,
                state,
                config.seed,
                config.plan.entry_for(id).cloned(),
            )
        })
        .collect();
    cores.reverse(); // pop() below hands out id 0 first

    let clock = WallClock::new(Instant::now());
    let (report, served) = std::thread::scope(|scope| {
        let mut node_handles = Vec::with_capacity(n);
        for id in 0..n {
            let mut core = cores.pop().expect("one core per node");
            debug_assert_eq!(core.id(), id);
            let plane = &plane;
            let board = &board;
            let tracer = obs.node_tracer(id);
            node_handles.push(scope.spawn(move || {
                run_node_thread(&mut core, plane, board, &clock, &sched, horizon, tracer);
                core.missed()
            }));
        }
        let monitor_handle = {
            let plane_n = n;
            let board = &board;
            let snapshot = &snapshot;
            let done = &done;
            let modulus = algo.modulus();
            let tracer = obs.monitor_tracer();
            scope.spawn(move || {
                let result = run_monitor_thread(
                    plane_n, board, snapshot, &clock, &sched, horizon, quorum, modulus, confirm,
                    tracer,
                );
                done.store(true, Ordering::Release);
                result
            })
        };

        let served = serve(CounterHandle::new(&snapshot, &done));

        let missed: Vec<u64> = node_handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect();
        let (events, digest, trace) = monitor_handle.join().expect("monitor thread panicked");

        let burst_ends: Vec<u64> = config
            .plan
            .entries()
            .iter()
            .filter_map(|e| e.until_round)
            .collect();
        let recoveries = MonitorCore::recoveries(&events, &burst_ends, |r| sched.slot_start(r));
        obs.record_recoveries(&recoveries);
        let report = RunReport {
            rounds: horizon,
            first_stable_round: MonitorCore::first_stable_round(&events),
            events,
            recoveries,
            missed,
            digest,
            wall_nanos: clock.now(),
            trace,
        };
        (report, served)
    });
    Ok((report, served))
}

/// One node's self-clocked round loop. Returns when the horizon is
/// reached or the node crashes.
#[allow(clippy::too_many_arguments)]
fn run_node_thread<P>(
    core: &mut NodeCore<'_, P>,
    plane: &MailboxPlane,
    board: &OutputBoard,
    clock: &WallClock,
    sched: &RoundSchedule,
    horizon: u64,
    mut tracer: NodeTrace,
) where
    P: Counter + PreparedProtocol + RawState<P::State>,
{
    let mut round = 0u64;
    while round < horizon {
        clock.wait_until(sched.slot_start(round));
        // Oversleeping whole windows (scheduler stall, paused VM) means
        // those rounds are simply missed: fast-forward — the receivers
        // already degraded us to "no message", never waited.
        let current = sched.round_of(clock.now());
        if current > round {
            round = current;
            if round >= horizon {
                break;
            }
        }
        tracer.round_open(|| clock.now(), round);
        match core.action(round, sched.period_ns()) {
            PublishAction::Honest => {
                core.publish_honest(plane, board, round);
                tracer.publish(|| clock.now(), round, || core.output());
            }
            PublishAction::Mute => tracer.fault_active(|| clock.now(), round, 1),
            PublishAction::Crash => {
                core.publish_crash(plane, round);
                tracer.fault_active(|| clock.now(), round, 0);
                return; // the thread dies mid-round, for real
            }
            PublishAction::Delayed { delay_ns } => {
                clock.wait_until(sched.slot_start(round) + delay_ns);
                core.publish_honest(plane, board, round);
                tracer.publish_late(|| clock.now(), round, delay_ns);
            }
            PublishAction::Equivocate => {
                core.publish_equivocate(plane, round);
                tracer.fault_active(|| clock.now(), round, 3);
            }
            PublishAction::Scripted => {
                clock.wait_until(sched.obs_point(round));
                core.observe_for_script(plane, round);
                core.publish_scripted(plane, round);
                tracer.fault_active(|| clock.now(), round, 4);
            }
        }
        clock.wait_until(sched.read_point(round));
        core.read_and_step(plane, round);
        tracer.read_step(|| clock.now(), round, core.missed());
        round += 1;
    }
}

/// The monitor thread: one board sample per round at the sample point.
#[allow(clippy::too_many_arguments)]
fn run_monitor_thread(
    n: usize,
    board: &OutputBoard,
    snapshot: &SnapshotCell,
    clock: &WallClock,
    sched: &RoundSchedule,
    horizon: u64,
    quorum: usize,
    modulus: u64,
    confirm: u64,
    mut tracer: MonitorTrace,
) -> (Vec<StabilityEvent>, u64, Vec<(u64, BoardSample)>) {
    let mut monitor = MonitorCore::new(quorum, modulus, confirm);
    let mut trace = Vec::with_capacity(horizon as usize);
    let mut round = 0u64;
    while round < horizon {
        clock.wait_until(sched.sample_point(round));
        let now = clock.now();
        // An overslept monitor skips the windows it missed rather than
        // misreading stale board tags as disagreement.
        let current = sched.round_of(now);
        if current > round {
            round = current;
            if round >= horizon {
                break;
            }
            continue;
        }
        let sample: BoardSample = (0..n).map(|i| board.sample(i)).collect();
        monitor.observe(round, &sample, now, snapshot);
        tracer.observe(|| clock.now(), round, &monitor);
        trace.push((round, sample));
        round += 1;
    }
    let digest = monitor.digest();
    (monitor.into_events(), digest, trace)
}
