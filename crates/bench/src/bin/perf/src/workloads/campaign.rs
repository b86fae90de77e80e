//! `synth-campaign`: one 40-candidate window of the `n = 5, f = 1,
//! |X| = 3` symmetric family (21 row classes), starting at a seed-derived
//! position, swept through the attack pre-filter and the quotient verifier
//! by one `sweep_family_on` call on the campaign's own pool.

use std::sync::OnceLock;
use std::time::Instant;

use sc_attack::AttackPreFilter;
use sc_exec::Pool;
use sc_verifier::{
    sweep_family_on, Analyzer, CandidateFilter, SweepCheckpoint, SweepLedger, SymmetricFamily,
};

use super::{Body, Rep, Workload};
use crate::digest::{derive, Digest};
use crate::registry::{self, WorkloadDef};
use crate::trace::Tracer;

pub const INSTANTIATE_SPAN: &str = "verifier.instantiate";
pub const PREFILTER_SPAN: &str = "attack.prefilter";
pub const ANALYZE_SPAN: &str = "verifier.analyze";
/// Count: sweep evaluations the pre-filter spent.
pub const FILTER_EVALS_COUNT: &str = "attack.prefilter_evals";

/// Candidates of the family: `3^21`.
const FAMILY: u64 = 10_460_353_203;
/// Candidates per repetition.
pub const WINDOW: u64 = 40;

/// The exhaustive `|X| = 2` family swept once per set-up: 64 candidates,
/// 61 filtered, 3 survivors, 3 verified, none correct.
const ANCHOR_LEDGER: SweepLedger = SweepLedger {
    screened: 64,
    filtered: 61,
    survivors: 3,
    verified: 3,
    found: 0,
};

pub struct Campaign {
    /// First candidate of the window.
    start: u64,
    threads: usize,
    gen_s: f64,
}

/// The pool a `threads`-thread campaign submits to: `threads - 1`
/// workers, the submitter being the last executor. `sc-exec` workers are
/// detached and never exit, so each pool is started once per process and
/// is not part of any timed set-up (a spawn is tens of microseconds).
fn pool(threads: usize) -> &'static Pool {
    static POOLS: [OnceLock<Pool>; 2] = [OnceLock::new(), OnceLock::new()];
    POOLS[threads - 1].get_or_init(|| Pool::new(threads - 1))
}

fn new_filter() -> AttackPreFilter {
    AttackPreFilter::new(4, 3, 48, 9)
}

fn new_analyzer() -> Analyzer {
    let mut analyzer = Analyzer::new();
    analyzer.dedup_fault_sets(true);
    analyzer
}

impl Campaign {
    pub fn generate(seed: u64, threads: usize) -> Campaign {
        assert!((1..=2).contains(&threads), "campaign runs at T = 1 or 2");
        let start = Instant::now();
        Campaign {
            start: derive(seed, 0) % (FAMILY - WINDOW),
            threads,
            gen_s: start.elapsed().as_secs_f64(),
        }
    }

    pub fn pool(&self) -> &'static Pool {
        pool(self.threads)
    }
}

/// The serial replica of `sweep_family_on` over the window: instantiate,
/// reject, analyze, fold — each public call in a span, the fold inline.
fn replica(
    family: &SymmetricFamily,
    filter: &mut AttackPreFilter,
    analyzer: &mut Analyzer,
    start: u64,
    tracer: &mut Tracer,
) -> Result<SweepCheckpoint, String> {
    let mut checkpoint = SweepCheckpoint::new();
    checkpoint.position = start;
    let mut lut = family.seed().map_err(|e| e.to_string())?;
    let evals_before = filter.evaluations();
    for index in start..start + WINDOW {
        tracer.span(INSTANTIATE_SPAN, || family.instantiate(index, &mut lut));
        checkpoint.ledger.screened += 1;
        if tracer.span(PREFILTER_SPAN, || filter.reject(&lut)) {
            checkpoint.ledger.filtered += 1;
        } else {
            checkpoint.ledger.survivors += 1;
            checkpoint.survivors.push(index);
            let summary = tracer
                .span(ANALYZE_SPAN, || analyzer.analyze(&lut))
                .map_err(|e| e.to_string())?;
            checkpoint.ledger.verified += 1;
            if summary.failure.is_none() {
                checkpoint.ledger.found += 1;
                checkpoint.found.push((index, summary.worst_time));
            }
        }
        checkpoint.position += 1;
    }
    tracer.count(FILTER_EVALS_COUNT, filter.evaluations() - evals_before);
    Ok(checkpoint)
}

/// Checks the window's ledger and folds it into the digest; returns the
/// candidates it screened.
fn fold(checkpoint: &SweepCheckpoint, start: u64, digest: &mut Digest) -> Result<u64, String> {
    let ledger = checkpoint.ledger;
    if checkpoint.position != start + WINDOW
        || ledger.screened != WINDOW
        || ledger.screened != ledger.filtered + ledger.survivors
        || ledger.verified != ledger.survivors
        || ledger.found > ledger.verified
    {
        return Err(format!(
            "ledger invariants broken at {}: {ledger:?}",
            checkpoint.position
        ));
    }
    digest.words([
        checkpoint.position,
        ledger.screened,
        ledger.filtered,
        ledger.survivors,
        ledger.verified,
        ledger.found,
    ]);
    digest.words(checkpoint.survivors.iter().copied());
    digest.words(
        checkpoint
            .found
            .iter()
            .flat_map(|&(index, time)| [index, time]),
    );
    Ok(ledger.screened)
}

impl Workload for Campaign {
    fn def(&self) -> &'static WorkloadDef {
        registry::workload(registry::CAMPAIGN).expect("registered")
    }

    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn session(&self, body: &mut Body<'_>) -> Result<f64, String> {
        let pool = self.pool();
        let start = Instant::now();
        let family = SymmetricFamily::new(5, 1, 2, 3).map_err(|e| e.to_string())?;
        let mut filter = new_filter();
        let mut analyzer = new_analyzer();
        // Anchor: the exhaustive |X| = 2 family must give the pinned
        // ledger before a window of the larger family is believed.
        let anchor_family = SymmetricFamily::new(5, 1, 2, 2).map_err(|e| e.to_string())?;
        let mut anchor = SweepCheckpoint::new();
        sweep_family_on(
            pool,
            self.threads,
            &anchor_family,
            &mut new_filter(),
            &mut new_analyzer(),
            &mut anchor,
            u64::MAX,
        )
        .map_err(|e| e.to_string())?;
        let setup_s = start.elapsed().as_secs_f64();
        if anchor.ledger != ANCHOR_LEDGER {
            return Err(format!(
                "|X|=2 anchor ledger {:?}, expected {ANCHOR_LEDGER:?}",
                anchor.ledger
            ));
        }
        body(&mut |tracer: Option<&mut Tracer>| {
            let checkpoint = match tracer {
                None => {
                    let mut checkpoint = SweepCheckpoint::new();
                    checkpoint.position = self.start;
                    sweep_family_on(
                        pool,
                        self.threads,
                        &family,
                        &mut filter,
                        &mut analyzer,
                        &mut checkpoint,
                        WINDOW,
                    )
                    .map_err(|e| e.to_string())?;
                    checkpoint
                }
                Some(tracer) => replica(&family, &mut filter, &mut analyzer, self.start, tracer)?,
            };
            let mut digest = Digest::new();
            let units = fold(&checkpoint, self.start, &mut digest)?;
            Ok(Rep {
                units,
                digest: digest.finish(),
            })
        });
        Ok(setup_s)
    }
}
