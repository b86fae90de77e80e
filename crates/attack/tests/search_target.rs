//! Goal semantics of the search ([`SearchConfig::target`]) on A(4,1):
//!
//! * `target = None` is bitwise the search as it was before the option
//!   existed — reports pinned from the parent commit;
//! * a targeted run is a **prefix** of the un-targeted run with the same
//!   seed: it stops at the first evaluation scoring `>= target` and reports
//!   that script, that delay and the evaluations up to it. Walking the
//!   target up one record at a time reconstructs the un-targeted run's
//!   chain of strict records, ends in the un-targeted report bit for bit,
//!   and — where a smaller budget is a prefix too (one `random_search` or
//!   `hill_climb` task) — every link equals the un-targeted run truncated
//!   at that evaluation;
//! * with several restarts the report is defined in task order: a target
//!   reached by task 0 leaves tasks 1.. out of `evaluations`;
//! * anneal's per-restart score table changes what a run costs, never what
//!   it reports: anneal reports on A(4,1) and on A(12,3) in the
//!   `attack-search` shape, with and without a target, are pinned from the
//!   build before the table, while `sweeps` falls below `evaluations`.

use sc_attack::search::{anneal, beam_search, hill_climb, random_search, search};
use sc_attack::{Delay, MoveSpace, Objective, Script, SearchConfig, SearchReport};
use sc_core::{Algorithm, CounterBuilder};
use sc_protocol::BitVec;

type Obj<'a> = Objective<'a, Algorithm, &'a Algorithm>;
type Strategy<'a> = fn(&Obj<'a>, &SearchConfig) -> SearchReport;

fn a4() -> Algorithm {
    CounterBuilder::corollary1(1, 8).unwrap().build().unwrap()
}

fn objective(algo: &Algorithm) -> Obj<'_> {
    Objective::new(algo, algo, vec![1], 0..4, 64).unwrap()
}

fn strategies<'a>() -> [(&'static str, Strategy<'a>); 5] {
    [
        ("random_search", random_search),
        ("hill_climb", hill_climb),
        ("anneal", anneal),
        ("beam_search", beam_search),
        ("search", search),
    ]
}

fn config(restarts: usize) -> SearchConfig {
    let space = MoveSpace {
        raw_values: 5,
        salts: 2,
        max_lag: 2,
    };
    let mut cfg = SearchConfig::new(3, space, 6);
    cfg.budget = 40;
    cfg.restarts = restarts;
    cfg.threads = 1;
    cfg
}

/// Everything a report says.
fn key(report: &SearchReport) -> (Script, Delay, u64) {
    (report.best.clone(), report.delay, report.evaluations)
}

/// FNV-1a over the script's lossless encoding: a compact pin for a golden
/// table.
fn script_hash(report: &SearchReport) -> u64 {
    let mut bits = BitVec::new();
    report.best.encode(&mut bits);
    bits.words().iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The smallest delay strictly greater than `delay`.
fn successor(delay: Delay) -> Delay {
    Delay {
        total: delay.total + 1,
        ..delay
    }
}

/// `(strategy, worst, unstable, total, evaluations, script hash)` of the
/// un-targeted two-restart run, printed by the parent commit's build of
/// this fixture.
const PARENT_REPORTS: [(&str, u64, usize, u64, u64, u64); 5] = [
    ("random_search", 45, 0, 61, 40, 0x494c_21c7_e6d9_328b),
    ("hill_climb", 65, 1, 72, 35, 0x6042_2a9c_12b6_3cc1),
    ("anneal", 65, 1, 72, 40, 0x81af_c2b4_6acb_f1f1),
    ("beam_search", 65, 1, 72, 36, 0xe6c1_2c36_7ce8_683e),
    ("search", 65, 1, 72, 39, 0x6042_2a9c_12b6_3cc1),
];

#[test]
fn target_none_reproduces_the_parent_reports_bit_for_bit() {
    let algo = a4();
    let obj = objective(&algo);
    for ((name, strategy), pinned) in strategies().into_iter().zip(PARENT_REPORTS) {
        let report = strategy(&obj, &config(2));
        let got = (
            name,
            report.delay.worst,
            report.delay.unstable,
            report.delay.total,
            report.evaluations,
            script_hash(&report),
        );
        assert_eq!(got, pinned, "{name} moved with target = None");
    }
}

/// A(12,3) with the Figure-2 fault set in the `attack-search` shape: 64
/// scenarios of 96 rounds on the sliced engine, 4-round echo scripts.
fn a12() -> Algorithm {
    CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap()
}

fn a12_objective(algo: &Algorithm) -> Obj<'_> {
    let mut obj = Objective::new(algo, algo, vec![0, 1, 4], 0..64, 96).unwrap();
    assert!(obj.attach_sliced(), "A(12,3) lowers");
    obj
}

fn a12_config(budget: u64) -> SearchConfig {
    let mut cfg = SearchConfig::new(4, MoveSpace::echoes(2), 1);
    cfg.budget = budget;
    cfg.threads = 1;
    cfg
}

/// `(run, worst, unstable, total, evaluations, script hash)` of `anneal`
/// runs printed by the build before anneal kept a score table; each
/// `target` run asks for the delay of the run above it.
const PARENT_ANNEAL_REPORTS: [(&str, u64, usize, u64, u64, u64); 6] = [
    ("a4 restarts 1", 65, 1, 89, 160, 0x929b_9565_ff98_669c),
    ("a4 restarts 1 target", 65, 1, 89, 36, 0x929b_9565_ff98_669c),
    ("a4 echoes", 46, 0, 53, 120, 0x3f43_c147_6fd5_5245),
    ("a4 echoes target", 46, 0, 53, 109, 0x3f43_c147_6fd5_5245),
    ("a12", 25, 0, 481, 128, 0x148c_1e60_1aa8_6e20),
    ("a12 target", 25, 0, 481, 102, 0x148c_1e60_1aa8_6e20),
];

#[test]
fn anneal_reports_are_unchanged_by_the_score_table() {
    let a4 = a4();
    let a4_obj = objective(&a4);
    let a12 = a12();
    let a12_obj = a12_objective(&a12);
    let mut restarts_1 = config(1);
    restarts_1.budget = 160;
    let mut echoes = config(3);
    echoes.space = MoveSpace::echoes(2);
    echoes.seed = 11;
    echoes.budget = 120;
    let runs = [
        (&a4_obj, restarts_1),
        (&a4_obj, echoes),
        (&a12_obj, a12_config(128)),
    ];
    for ((obj, mut cfg), pins) in runs.into_iter().zip(PARENT_ANNEAL_REPORTS.chunks(2)) {
        for &(name, worst, unstable, total, evaluations, hash) in pins {
            let delay = Delay {
                worst,
                unstable,
                total,
            };
            cfg.target = name.ends_with("target").then_some(delay);
            let report = anneal(obj, &cfg);
            let got = (report.delay, report.evaluations, script_hash(&report));
            assert_eq!(got, (delay, evaluations, hash), "{name} moved");
            assert!(report.sweeps <= report.evaluations, "{name}");
            if name == "a12" {
                // The `attack-search` shape: repeats are common.
                assert!(
                    report.sweeps < report.evaluations,
                    "{} sweeps for {} candidates: no repeat was answered from the table",
                    report.sweeps,
                    report.evaluations
                );
            }
        }
    }
}

#[test]
fn strategies_without_a_table_sweep_every_candidate() {
    let a4 = a4();
    let obj = objective(&a4);
    for (name, strategy) in [
        ("random_search", random_search as Strategy<'_>),
        ("hill_climb", hill_climb),
        ("beam_search", beam_search),
    ] {
        let report = strategy(&obj, &config(2));
        assert_eq!(report.sweeps, report.evaluations, "{name}");
    }
}

#[test]
fn targeted_runs_are_prefixes_of_the_untargeted_run() {
    let algo = a4();
    let obj = objective(&algo);
    for (name, strategy) in strategies() {
        for restarts in [1, 2] {
            let mut cfg = config(restarts);
            let untargeted = strategy(&obj, &cfg);
            // One `random_search` / `hill_climb` task draws the same
            // trajectory under any budget, so a smaller budget is a prefix.
            let truncates = restarts == 1 && matches!(name, "random_search" | "hill_climb");
            let mut target = Delay::default();
            let mut records: Vec<SearchReport> = Vec::new();
            loop {
                cfg.target = Some(target);
                let hit = strategy(&obj, &cfg);
                if hit.delay < target {
                    // Never reached: the whole budget, bit for bit.
                    assert_eq!(key(&hit), key(&untargeted), "{name}/{restarts}");
                    break;
                }
                assert_eq!(
                    obj.clone().evaluate(&hit.best),
                    hit.delay,
                    "{name}/{restarts}: the reported script is the one that scored"
                );
                assert!(hit.evaluations <= untargeted.evaluations);
                match records.last() {
                    // Any first evaluation reaches the minimum delay.
                    None => assert_eq!(hit.evaluations, 1, "{name}/{restarts}"),
                    Some(prev) => {
                        assert!(hit.delay > prev.delay, "{name}/{restarts}");
                        assert!(hit.evaluations > prev.evaluations, "{name}/{restarts}");
                    }
                }
                // Asking for exactly what was found stops at the same
                // evaluation: nothing earlier scored that much.
                cfg.target = Some(hit.delay);
                assert_eq!(key(&strategy(&obj, &cfg)), key(&hit), "{name}/{restarts}");
                if truncates {
                    let mut cut = config(restarts);
                    cut.budget = hit.evaluations;
                    assert_eq!(key(&strategy(&obj, &cut)), key(&hit), "{name} at budget");
                    if hit.evaluations > 1 {
                        cut.budget = hit.evaluations - 1;
                        assert!(strategy(&obj, &cut).delay < target, "{name} one short");
                    }
                }
                target = successor(hit.delay);
                records.push(hit);
            }
            let last = records.last().expect("the first evaluation is a record");
            // Strategies that report their running maximum report its
            // first occurrence; beam search reports the last beam's best,
            // which an earlier round may have beaten.
            if matches!(name, "random_search" | "hill_climb" | "anneal") {
                assert_eq!(last.best, untargeted.best, "{name}/{restarts}");
                assert_eq!(last.delay, untargeted.delay, "{name}/{restarts}");
            } else {
                assert!(last.delay >= untargeted.delay, "{name}/{restarts}");
            }
        }
    }
}

#[test]
fn tasks_after_the_first_that_reached_the_target_contribute_nothing() {
    let algo = a4();
    let obj = objective(&algo);
    let fan_outs: [(&str, Strategy<'_>); 3] = [
        ("random_search", random_search),
        ("hill_climb", hill_climb),
        ("anneal", anneal),
    ];
    for (name, strategy) in fan_outs {
        let mut cfg = config(2);
        // Task 0's best, found by running it alone on the same slice.
        let mut alone = config(1);
        alone.budget = cfg.budget / 2;
        let task0 = strategy(&obj, &alone);
        cfg.target = Some(task0.delay);
        let hit = strategy(&obj, &cfg);
        assert_eq!(hit.best, task0.best, "{name}");
        assert_eq!(hit.delay, task0.delay, "{name}");
        assert!(
            hit.evaluations <= task0.evaluations,
            "{name}: {} evaluations, task 0 alone spent {}",
            hit.evaluations,
            task0.evaluations
        );
    }
    // The combined search's tasks are its four strategies, random first.
    let mut cfg = config(2);
    let mut random_cfg = config(2);
    random_cfg.budget = cfg.budget / 8;
    let random = random_search(&obj, &random_cfg);
    cfg.target = Some(random.delay);
    let hit = search(&obj, &cfg);
    assert_eq!(hit.best, random.best);
    assert_eq!(hit.delay, random.delay);
    assert!(hit.evaluations <= random.evaluations);
}
