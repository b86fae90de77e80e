//! `attack-search`: one structured annealing search of 512 evaluations for
//! a worst-case scripted adversary against A(12,3), every sweep evaluation
//! running on the bit-sliced engine. The scalar `step` is never called.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_attack::{search, MoveSpace, Objective, Script, SearchConfig, SearchReport};
use sc_core::Algorithm;
use sc_protocol::BitVec;

use super::{figure2, Body, Rep, Workload};
use crate::digest::{derive, Digest};
use crate::registry::{self, WorkloadDef};
use crate::trace::Tracer;

/// The Figure-2 fault set of A(12,3).
pub const FAULTY: [usize; 3] = [0, 1, 4];
pub const SCENARIOS: u64 = 64;
pub const HORIZON: u64 = 96;
/// Explicitly scripted rounds per candidate.
pub const ROUNDS: usize = 4;
pub const ANNEAL_SPAN: &str = "attack.anneal";

pub struct Attack {
    /// First scenario seed of the objective's sweep.
    scenario_base: u64,
    search_seed: u64,
    /// Seed of the one script evaluated in set-up (first lowering).
    first_script_seed: u64,
    gen_s: f64,
}

/// The sliced objective every attack measurement uses: A(12,3), the
/// Figure-2 fault set, 64 seeded scenarios of 96 rounds.
pub fn objective(
    algo: &Algorithm,
    scenario_base: u64,
) -> Result<Objective<'_, Algorithm, &Algorithm>, String> {
    let mut objective = Objective::new(
        algo,
        algo,
        FAULTY.to_vec(),
        scenario_base..scenario_base + SCENARIOS,
        HORIZON,
    )
    .map_err(|e| e.to_string())?;
    if !objective.attach_sliced() {
        return Err("A(12,3) must lower to the sliced engine".into());
    }
    Ok(objective)
}

/// The search configuration: echo moves only, one thread.
pub fn search_config(seed: u64, budget: u64) -> SearchConfig {
    let mut cfg = SearchConfig::new(ROUNDS, MoveSpace::echoes(2), seed);
    cfg.budget = budget;
    cfg.threads = 1;
    cfg
}

/// A seeded echo script of the searched shape.
pub fn random_script(n: usize, seed: u64) -> Script {
    let mut rng = SmallRng::seed_from_u64(seed);
    Script::random(
        n,
        FAULTY.to_vec(),
        ROUNDS,
        0,
        &MoveSpace::echoes(2),
        &mut rng,
    )
}

impl Attack {
    pub fn generate(seed: u64) -> Attack {
        let start = Instant::now();
        Attack {
            // Keeps `base + SCENARIOS` far from overflow.
            scenario_base: derive(seed, 0) >> 8,
            search_seed: derive(seed, 1),
            first_script_seed: derive(seed, 2),
            gen_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// Folds one search into the digest; returns the evaluations it spent.
fn fold(report: &SearchReport, budget: u64, digest: &mut Digest) -> Result<u64, String> {
    if report.evaluations != budget {
        return Err(format!(
            "search spent {} evaluations, budget {budget}",
            report.evaluations
        ));
    }
    digest.words([
        report.delay.worst,
        report.delay.unstable as u64,
        report.delay.total,
        report.evaluations,
    ]);
    let mut bits = BitVec::new();
    report.best.encode(&mut bits);
    digest.word(bits.len() as u64);
    digest.words(bits.words().iter().copied());
    Ok(report.evaluations)
}

impl Workload for Attack {
    fn def(&self) -> &'static WorkloadDef {
        registry::workload(registry::ATTACK).expect("registered")
    }

    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn session(&self, body: &mut Body<'_>) -> Result<f64, String> {
        let budget = self.def().units;
        let first_script = random_script(12, self.first_script_seed);
        let cfg = search_config(self.search_seed, budget);
        let start = Instant::now();
        let algo = figure2(1);
        let mut objective = objective(&algo, self.scenario_base)?;
        // The first evaluation lowers the round programs it meets; later
        // ones hit the model's cache.
        std::hint::black_box(objective.evaluate(&first_script));
        let setup_s = start.elapsed().as_secs_f64();
        body(&mut |tracer: Option<&mut Tracer>| {
            // `anneal` is one opaque call: its move bookkeeping cannot be
            // reached from outside, so the replica is the driver in a span.
            let report = match tracer {
                None => search::anneal(&objective, &cfg),
                Some(tracer) => tracer.span(ANNEAL_SPAN, || search::anneal(&objective, &cfg)),
            };
            let mut digest = Digest::new();
            let units = fold(&report, budget, &mut digest)?;
            Ok(Rep {
                units,
                digest: digest.finish(),
            })
        });
        Ok(setup_s)
    }
}
