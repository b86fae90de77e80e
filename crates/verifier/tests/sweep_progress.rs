//! Pins the `sweep_family_observed` contract: metering is observe-only
//! (checkpoints bitwise-match a plain `sweep_family` run), the gauges
//! mirror the ledger live, and a detached bundle records nothing.

use sc_verifier::{
    sweep_family, sweep_family_observed, Analyzer, NoFilter, SweepCheckpoint, SweepObs,
    SymmetricFamily,
};

#[test]
fn observed_sweep_checkpoint_matches_plain() {
    let family = SymmetricFamily::new(4, 1, 2, 2).unwrap();
    let total = family.len().unwrap();

    let mut plain = SweepCheckpoint::new();
    let plain_outcome = sweep_family(
        &family,
        &mut NoFilter,
        &mut Analyzer::new(),
        &mut plain,
        total,
    )
    .unwrap();
    assert!(plain_outcome.complete);

    let obs = SweepObs::recording();
    assert!(obs.is_recording());
    let mut observed = SweepCheckpoint::new();
    let outcome = sweep_family_observed(
        &family,
        &mut NoFilter,
        &mut Analyzer::new(),
        &mut observed,
        total,
        &obs,
    )
    .unwrap();

    assert!(outcome.complete, "full budget must finish the family");
    assert_eq!(outcome.processed, plain_outcome.processed);
    assert_eq!(observed, plain, "metering must not perturb the sweep");

    // The gauges mirror the final checkpoint.
    assert_eq!(obs.progress(), (total, total));
    let metrics = obs.metrics().expect("recording bundle snapshots");
    assert_eq!(metrics.gauge("sweep.position"), Some(total as i64));
    assert_eq!(metrics.gauge("sweep.total"), Some(total as i64));
    assert_eq!(
        metrics.gauge("sweep.screened"),
        Some(observed.ledger.screened as i64)
    );
    assert_eq!(
        metrics.gauge("sweep.filtered"),
        Some(observed.ledger.filtered as i64)
    );
    assert_eq!(
        metrics.gauge("sweep.survivors"),
        Some(observed.ledger.survivors as i64)
    );
    assert_eq!(
        metrics.gauge("sweep.verified"),
        Some(observed.ledger.verified as i64)
    );
    assert_eq!(
        metrics.gauge("sweep.found"),
        Some(observed.ledger.found as i64)
    );
    // Finished run: no work remaining, so the ETA collapses to zero.
    assert_eq!(obs.eta_ms(), Some(0));
}

#[test]
fn partial_budgets_resume_under_one_bundle() {
    let family = SymmetricFamily::new(4, 1, 2, 2).unwrap();
    let total = family.len().unwrap();
    let obs = SweepObs::recording();
    let mut checkpoint = SweepCheckpoint::new();
    let mut analyzer = Analyzer::new();

    let first = sweep_family_observed(
        &family,
        &mut NoFilter,
        &mut analyzer,
        &mut checkpoint,
        total / 2,
        &obs,
    )
    .unwrap();
    assert!(!first.complete);
    assert_eq!(obs.progress(), (checkpoint.position, total));
    let mid_position = checkpoint.position;

    let rest = sweep_family_observed(
        &family,
        &mut NoFilter,
        &mut analyzer,
        &mut checkpoint,
        total,
        &obs,
    )
    .unwrap();
    assert!(rest.complete);
    assert_eq!(first.processed + rest.processed, total);
    assert!(checkpoint.position > mid_position);
    assert_eq!(obs.progress(), (total, total));

    // Same family swept plain must agree bitwise.
    let mut plain = SweepCheckpoint::new();
    sweep_family(
        &family,
        &mut NoFilter,
        &mut Analyzer::new(),
        &mut plain,
        total,
    )
    .unwrap();
    assert_eq!(checkpoint, plain);
}

#[test]
fn detached_bundle_records_nothing() {
    let obs = SweepObs::default();
    assert!(!obs.is_recording());
    assert!(obs.metrics().is_none());
    assert_eq!(obs.progress(), (0, 0));
    assert_eq!(obs.eta_ms(), None);

    let family = SymmetricFamily::new(4, 1, 2, 2).unwrap();
    let total = family.len().unwrap();
    let mut checkpoint = SweepCheckpoint::new();
    let outcome = sweep_family_observed(
        &family,
        &mut NoFilter,
        &mut Analyzer::new(),
        &mut checkpoint,
        total,
        &obs,
    )
    .unwrap();
    assert!(outcome.complete);
    assert!(obs.metrics().is_none(), "detached stays detached");
}
