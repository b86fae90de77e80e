//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics, and the pinned units and golden
//! digests. `BENCHMARK.json` at the repository root is generated from this
//! module (`perf manifest`), so names and bounds have one source.

use crate::json::{obj, Value};

/// Seed used when none is given; its digests are pinned below.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed with pinned digests that was never used while sizing the
/// workloads — a claim must also hold here.
pub const HELD_OUT_SEED: u64 = 0x5eed_cafe;

/// How long one run measures, in seconds (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 12;

/// Fewest timed repetitions of a run, however short `--seconds` is.
pub const MIN_REPS: usize = 8;
/// Repetitions run before the timed ones, checked but not timed.
pub const WARM_UPS: usize = 2;

/// Threads of the parallel per-layer figures (`exec.*`, the contended
/// seqlock reads).
pub const PARALLEL_THREADS: usize = 2;
/// Threads of the `synth-campaign` driver, on its own pool of one fewer
/// workers. The other four workloads run on one thread.
pub const CAMPAIGN_THREADS: usize = 2;

pub struct WorkloadDef {
    pub name: &'static str,
    /// What one work unit is.
    pub unit: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
    /// Work units of one repetition. A repetition that reports another
    /// count fails: the workload, not its speed, changed.
    pub units: u64,
    /// Seconds one repetition took on the reference box when the workload
    /// was sized. It only turns `--seconds` into a repetition count, so
    /// that the count does not depend on how fast the measured build is.
    pub nominal_rep_s: f64,
    /// `result_digest` of one repetition at [`DEFAULT_SEED`] and at
    /// [`HELD_OUT_SEED`].
    pub golden: [u64; 2],
    /// Whether the first golden digest holds at every seed (the seed then
    /// only renames the inputs; see `verify-solver`).
    pub golden_for_every_seed: bool,
}

pub const SWEEP: &str = "sweep-stabilise";
pub const ATTACK: &str = "attack-search";
pub const CAMPAIGN: &str = "synth-campaign";
pub const SOLVER: &str = "verify-solver";
pub const RUNTIME: &str = "runtime-replay";

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: SWEEP,
        unit: "scenario-rounds",
        why: "The paper's experiment: A(36,7) stabilisation vs the proven bound, 2 scenarios under each of 4 adversaries; the scalar round kernel dominates, no sliced run, search, solver or pool.",
        units: 8 * 5056,
        nominal_rep_s: 1.4,
        golden: [0x31d0_fab0_7d09_0e24, 0xf50d_6484_b60e_52a0],
        golden_for_every_seed: false,
    },
    WorkloadDef {
        name: ATTACK,
        unit: "sweep-evaluations",
        why: "Worst-case adversary search on A(12,3), one anneal of budget 512: sliced DAG execution plus search bookkeeping; never calls the scalar step.",
        units: 512,
        nominal_rep_s: 1.0,
        golden: [0x6e8b_8c31_568c_0f92, 0xe8fe_85db_9ba0_f17f],
        golden_for_every_seed: false,
    },
    WorkloadDef {
        name: CAMPAIGN,
        unit: "candidates",
        why: "n=5 |X|=3 synthesis campaign, one 40-candidate window at a seed-derived position on its own pool at T=2: per-candidate objective rebuild, pre-filter hill-climb, pool claim/fold.",
        units: 40,
        nominal_rep_s: 1.1,
        golden: [0x8fc5_e111_8e2d_12e0, 0xc5bb_7869_9944_27b3],
        golden_for_every_seed: false,
    },
    WorkloadDef {
        name: SOLVER,
        unit: "configurations",
        why: "Solver-heavy counterpart of the campaign: 400 analyses of |X|=16 exchangeable games (quotient end) and the asymmetric follow-leader game (full end); no filter, no simulation.",
        units: 80 * (4 * (65_536 + 4 * 4_096) + 65_536),
        nominal_rep_s: 1.0,
        golden: [0xf4f2_8038_414a_2465, 0xf4f2_8038_414a_2465],
        golden_for_every_seed: true,
    },
    WorkloadDef {
        name: RUNTIME,
        unit: "rounds",
        why: "Live runtime code (NodeCore, MailboxPlane seqlock, MonitorCore, all four injectors) replayed on the virtual clock over 5000 seeds, the only form that repeats.",
        units: 5_000 * 80,
        nominal_rep_s: 1.0,
        golden: [0x8a2f_1ab6_39e8_046c, 0x39a3_8a22_ba7f_d799],
        golden_for_every_seed: false,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
    /// Definition, and for a per-layer metric what it should move.
    pub what: &'static str,
}

pub const THROUGHPUT: &str = "throughput";
pub const CPU_S: &str = "cpu_s";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const OK_SHARE: &str = "ok_share";

pub const END_TO_END: [MetricDef; 5] = [
    MetricDef {
        name: THROUGHPUT,
        unit: "units/s",
        better: Better::Higher,
        bound: Some(0.25),
        what: "work units of one repetition / wall time of the fastest whole repetition",
    },
    MetricDef {
        name: CPU_S,
        unit: "s",
        better: Better::Lower,
        bound: Some(0.25),
        what: "process CPU seconds (user+system, all threads) of that fastest repetition",
    },
    MetricDef {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: Some(0.25),
        what: "building the program's objects with their first-use work, fastest of the run's set-ups",
    },
    MetricDef {
        name: PEAK_RSS_MB,
        unit: "MiB",
        better: Better::Lower,
        bound: Some(0.10),
        what: "VmHWM after the timed section",
    },
    MetricDef {
        name: OK_SHARE,
        unit: "share",
        better: Better::Higher,
        bound: Some(0.001),
        what: "1 - fail_share: operations of repetitions that did not fail / operations attempted; 1 on a healthy run",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [MetricDef; 63] = [
    // protocol
    layer("protocol.view_resolve_ns", "ns", Lower, "MessageView::from_sources + 36 gets with 7 overrides; moves throughput on sweep-stabilise only"),
    // core
    layer("core.step_ns.a4", "ns", Lower, "one Algorithm::step on an honest A(4,1) view; moves throughput on runtime-replay"),
    layer("core.step_ns.a12", "ns", Lower, "one Algorithm::step on an honest A(12,3) view; no end-to-end workload steps A(12,3) scalar"),
    layer("core.step_ns.a36", "ns", Lower, "one Algorithm::step on an honest A(36,7) view; moves throughput on sweep-stabilise"),
    layer("core.prepared_step_ns.a36", "ns", Lower, "prepare_round + n step_prepared on A(36,7), per node; moves throughput on sweep-stabilise"),
    layer("core.lower_ns.a12", "ns", Lower, "Objective::new + first attach_sliced + first evaluate on A(12,3); moves setup_s on attack-search"),
    // sim
    layer("sim.scalar_round_ns.none", "ns", Lower, "Simulation::step_prepared per scenario-round, A(36,7), no faults; moves throughput on sweep-stabilise"),
    layer("sim.scalar_round_ns.crash", "ns", Lower, "same under crash; moves throughput on sweep-stabilise"),
    layer("sim.scalar_round_ns.random", "ns", Lower, "same under fresh-random equivocation; moves throughput on sweep-stabilise"),
    layer("sim.scalar_round_ns.two-faced", "ns", Lower, "same under two-faced equivocation; moves throughput on sweep-stabilise"),
    layer("sim.fabricated_per_round", "count", Lower, "states the random adversary materialises per round (exact)"),
    layer("sim.fabricate_ns", "ns", Lower, "(random - none round time) / fabricated states; moves throughput on sweep-stabilise"),
    layer("sim.detect_ns", "ns", Lower, "agreed_output_now + OnlineDetector::observe per scenario-round; moves throughput on sweep-stabilise"),
    layer("sim.batch_overhead_share", "share", Lower, "(Batch::run_prepared - serial replica) / Batch; base: Batch repetition"),
    layer("sim.sliced_round_ns.lw1", "ns", Lower, "SlicedBatch lane_words=1, sliced_replay, A(12,3), 256 scenarios, per scenario-round; moves throughput on attack-search, synth-campaign"),
    layer("sim.sliced_round_ns.lw2", "ns", Lower, "same at lane_words=2"),
    layer("sim.sliced_round_ns.lw4", "ns", Lower, "same at lane_words=4"),
    layer("sim.sliced_round_ns.lw8", "ns", Lower, "same at lane_words=8"),
    layer("sim.sliced_vs_scalar_ratio", "ratio", Higher, "scalar / sliced(lw4) ns per scenario-round, replay strategy on A(12,3); base: sliced"),
    // exec
    layer("exec.map_empty_ns", "ns", Lower, "Pool::map(64, T, no-op) per call; moves throughput, cpu_s on synth-campaign"),
    layer("exec.claim_ns", "ns", Lower, "Pool::map over 4096 no-op indices, per index; moves synth-campaign"),
    layer("exec.scaling.campaign", "ratio", Higher, "campaign repetition at T=1 / at T=2; base: T=2"),
    layer("exec.scaling.sweep", "ratio", Higher, "four adversary sweeps on Pool::map at T=1 / at T=2; base: T=2"),
    layer("exec.busy_share", "share", Higher, "PoolStats.busy_ns delta / (T x wall) over a campaign repetition"),
    // attack
    layer("attack.eval_ns", "ns", Lower, "Objective::evaluate, sliced attached, A(12,3) 64x96; moves throughput on attack-search"),
    layer("attack.search_overhead_share", "share", Lower, "1 - evaluations x eval_ns / anneal wall; moves throughput on attack-search"),
    layer("attack.evals_to_target", "count", Lower, "smallest budget of {64,128,256,512} whose best Delay.worst reaches the target (1024: none did)"),
    layer("attack.objective_build_ns.lut5x3", "ns", Lower, "Algorithm::lut + Objective::new + attach_sliced on one |X|=3 candidate; moves throughput on synth-campaign"),
    layer("attack.prefilter_ns", "ns", Lower, "CandidateFilter::reject per candidate; moves throughput on synth-campaign"),
    layer("attack.prefilter_evals_per_cand", "count", Lower, "filter sweep evaluations per candidate (exact)"),
    layer("attack.prefilter_reject_ratio", "ratio", Higher, "rejected / screened over the window: useful outcomes per attempt"),
    // verifier
    layer("verifier.instantiate_ns", "ns", Lower, "SymmetricFamily::instantiate per candidate; moves throughput on synth-campaign"),
    layer("verifier.analyze_small_ns", "ns", Lower, "Analyzer::analyze on a campaign survivor (candidate 13 of the family); moves throughput on synth-campaign"),
    layer("verifier.analyze_exch_ns", "ns", Lower, "Analyzer::analyze on an exchangeable |X|=16 table; moves throughput on verify-solver"),
    layer("verifier.analyze_asym_ns", "ns", Lower, "Analyzer::analyze on the asymmetric follow-leader table; moves throughput on verify-solver"),
    layer("verifier.configs_per_s", "1/s", Higher, "joint configurations decided per second over the solver replica"),
    layer("verifier.cold_analyze_ratio", "ratio", Lower, "first analyze on a fresh Analyzer / warm analyze; moves setup_s on verify-solver"),
    layer("verifier.checkpoint_codec_ns", "ns", Lower, "SweepCheckpoint::encode + decode"),
    layer("verifier.fold_share", "share", Lower, "serial campaign wall not inside instantiate, reject or analyze"),
    // runtime
    layer("runtime.run_setup_ns", "ns", Lower, "run_deterministic at horizon 1; moves throughput on runtime-replay"),
    layer("runtime.publish_ns", "ns", Lower, "publish phase per publishing node; moves throughput on runtime-replay"),
    layer("runtime.read_step_ns", "ns", Lower, "NodeCore::read_and_step per node; moves throughput on runtime-replay"),
    layer("runtime.monitor_ns", "ns", Lower, "board sample + MonitorCore::observe per round; moves throughput on runtime-replay"),
    layer("runtime.slot_publish_ns", "ns", Lower, "uncontended Slot::publish"),
    layer("runtime.slot_observe_ns", "ns", Lower, "uncontended Slot::observe"),
    layer("runtime.slot_observe_contended_ns", "ns", Lower, "Slot::observe against one publishing writer thread; no end-to-end counterpart yet"),
    layer("runtime.slot_observe_fail_share", "share", Lower, "contended observes that missed"),
    layer("runtime.snapshot_load_ns", "ns", Lower, "uncontended SnapshotCell::load"),
    layer("runtime.snapshot_load_contended_ns", "ns", Lower, "SnapshotCell::load against one storing writer thread"),
    layer("runtime.live.miss_share", "share", Lower, "missed messages / messages due in one run_live at a 2 ms period; never gated"),
    layer("runtime.live.recovery_rounds_p50", "rounds", Lower, "median rounds from burst end to re-stabilisation in that run"),
    layer("runtime.live.reads_per_s", "1/s", Higher, "CounterHandle::read rate of one reader during that run"),
    layer("runtime.live.min_period_us", "us", Lower, "smallest rung of a x1.5 period ladder with zero missed messages in 3 of 3 honest runs"),
    // trace
    layer("trace.overhead_ratio.sweep-stabilise", "ratio", Lower, "traced replica / untraced driver repetition; base: untraced"),
    layer("trace.overhead_ratio.attack-search", "ratio", Lower, "traced replica / untraced driver repetition; base: untraced"),
    layer("trace.overhead_ratio.synth-campaign", "ratio", Lower, "traced replica / untraced driver repetition; base: untraced"),
    layer("trace.overhead_ratio.verify-solver", "ratio", Lower, "traced replica / untraced driver repetition; base: untraced"),
    layer("trace.overhead_ratio.runtime-replay", "ratio", Lower, "traced replica / untraced driver repetition; base: untraced"),
    layer("trace.unaccounted_share.sweep-stabilise", "share", Lower, "replica wall not covered by a layer span; the run fails above 0.15"),
    layer("trace.unaccounted_share.attack-search", "share", Lower, "anneal wall not explained by evaluations x eval_ns; reported only"),
    layer("trace.unaccounted_share.synth-campaign", "share", Lower, "replica wall not covered by a layer span; reported only"),
    layer("trace.unaccounted_share.verify-solver", "share", Lower, "replica wall not covered by a layer span; the run fails above 0.15"),
    layer("trace.unaccounted_share.runtime-replay", "share", Lower, "replica wall not covered by a layer span; the run fails above 0.15"),
];

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/perf/Cargo.toml",
    "--",
];

/// The directory that holds the benchmark and nothing else.
pub const PATH: &str = "crates/bench/src/bin/perf";

fn metric_json(m: &MetricDef) -> Value {
    let mut pairs = vec![
        ("name".to_string(), m.name.into()),
        ("unit".to_string(), m.unit.into()),
        ("better".to_string(), m.better.as_str().into()),
    ];
    if let Some(bound) = m.bound {
        pairs.push(("bound".to_string(), bound.into()));
    }
    Value::Obj(pairs)
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Value {
    obj([
        ("command", COMMAND.to_vec().into()),
        ("paths", vec![PATH].into()),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

/// `perf list`: every workload with its rationale, every metric with unit,
/// direction and bound.
pub fn list() -> String {
    let mut out = String::from("workloads (one repetition each):\n");
    for w in &WORKLOADS {
        out.push_str(&format!(
            "  {:<16} {:>9} {:<18} {}\n",
            w.name, w.units, w.unit, w.why
        ));
    }
    out.push_str("\nend-to-end metrics (every workload, tracing off):\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<12} {:<8} {:<7} bound {:>4.1}%  {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.what
        ));
    }
    out.push_str("\nper-layer metrics (traced run, never gated):\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<40} {:<6} {:<7} {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(
                well_formed(name),
                "{name:?} has a character outside [A-Za-z0-9_.-]"
            );
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?} of {}",
                m.unit,
                m.name
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.units > 0);
        }
    }

    #[test]
    fn bounds_are_on_end_to_end_metrics_only_and_setup_has_the_largest() {
        for m in &END_TO_END {
            let bound = m.bound.expect("every end-to-end metric is gated");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }

    #[test]
    fn every_workload_has_its_two_trace_metrics() {
        for w in &WORKLOADS {
            for family in ["trace.overhead_ratio", "trace.unaccounted_share"] {
                let name = format!("{family}.{}", w.name);
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
            }
        }
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        // Relative to this file: src -> perf -> bin -> src -> bench -> crates -> root.
        let checked_in = include_str!("../../../../../../BENCHMARK.json");
        assert_eq!(
            checked_in,
            manifest().render_pretty(),
            "regenerate with `perf manifest > BENCHMARK.json`"
        );
        assert!(checked_in.len() <= 64 * 1024);
    }

    #[test]
    fn list_names_everything() {
        let text = list();
        for w in &WORKLOADS {
            assert!(text.contains(w.name) && text.contains(w.why));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(text.contains(m.name) && text.contains(m.unit));
        }
    }
}
