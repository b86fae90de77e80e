//! The five workloads. Each generates its inputs from the seed on the
//! benchmark's side, builds the program's objects in a timed set-up, and
//! then offers one closure that runs a repetition either through the
//! program's real driver or through a traced serial replica made only of
//! public per-layer calls. Both fold their outputs into the same
//! `result_digest`, so "the replica measures the same work" is checked.

pub mod attack;
pub mod campaign;
pub mod runtime;
pub mod solver;
pub mod sweep;

use sc_core::{Algorithm, CounterBuilder};

use crate::registry::{self, WorkloadDef};
use crate::trace::Tracer;

/// What one repetition produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rep {
    /// Work units completed.
    pub units: u64,
    /// FNV digest of every output of the repetition.
    pub digest: u64,
}

/// Runs one repetition: `None` through the program's own driver, `Some`
/// through the traced replica. An `Err` is an error the program returned
/// or an invariant its outputs violated.
pub type RepFn<'a> = dyn FnMut(Option<&mut Tracer>) -> Result<Rep, String> + 'a;

/// Receives the repetition closure of one session.
pub type Body<'a> = dyn FnMut(&mut RepFn<'_>) + 'a;

pub trait Workload {
    fn def(&self) -> &'static WorkloadDef;

    /// Seconds the benchmark spent generating inputs (not part of
    /// `setup_s`: the program never sees the generator).
    fn gen_s(&self) -> f64;

    /// Builds the program's objects, hands `body` the repetition closure,
    /// and drops everything when it returns. Returns the seconds the
    /// building took (one `setup_s` sample). Fails when set-up itself
    /// errors or an anchor check does not hold.
    fn session(&self, body: &mut Body<'_>) -> Result<f64, String>;
}

/// Generates the named workload's inputs from `seed`.
pub fn generate(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        registry::SWEEP => Box::new(sweep::Sweep::generate(seed)),
        registry::ATTACK => Box::new(attack::Attack::generate(seed)),
        registry::CAMPAIGN => Box::new(campaign::Campaign::generate(
            seed,
            registry::CAMPAIGN_THREADS,
        )),
        registry::SOLVER => Box::new(solver::Solver::generate(seed)),
        registry::RUNTIME => Box::new(runtime::Runtime::generate(seed)),
        _ => return None,
    })
}

/// Level `boosts` of the paper's Figure-2 stack: A(4,1), A(12,3), A(36,7).
pub fn figure2(boosts: usize) -> Algorithm {
    let mut builder = CounterBuilder::corollary1(1, 2).expect("A(4,1) is well-formed");
    for _ in 0..boosts {
        builder = builder.boost(3).expect("k = 3 boosting is well-formed");
    }
    builder.build().expect("the Figure-2 stack builds")
}
