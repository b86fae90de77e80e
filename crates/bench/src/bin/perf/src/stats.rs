//! Order statistics for repetition timings.

/// Summary of one timing. The gated figure is the minimum (see
/// `harness::measure`); median, quartiles and maximum are reported beside
/// it so the disturbance of a run can be read off its record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) so that spreads
/// printed here match the ones the driver computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarise");
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let [q1, median, q3] = if values.len() == 1 {
        [values[0]; 3]
    } else {
        quartiles(values)
    };
    Summary {
        n: values.len(),
        median,
        q1,
        q3,
        min,
        max,
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against each metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, median, q3] = quartiles(values);
    (q3 - q1) / median
}

/// The tail percentile a timing with `n` samples may report: the highest
/// of p90 / p95 / p99 / p99.9 that still has at least ten samples beyond
/// it. Below a hundred samples there is none, so a run of a dozen
/// repetitions reports its order statistics and no tail.
pub fn reportable_percentile(n: usize) -> Option<f64> {
    // (percentile, samples per one sample beyond it)
    [(99.9, 1000), (99.0, 100), (95.0, 20), (90.0, 10)]
        .into_iter()
        .find(|&(_, per_tail_sample)| n >= 10 * per_tail_sample)
        .map(|(p, _)| p)
}

/// Nearest-rank percentile of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4)
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn twelve_samples_report_the_median_only() {
        assert_eq!(reportable_percentile(12), None);
        assert_eq!(reportable_percentile(19), None);
        assert_eq!(reportable_percentile(99), None);
        assert_eq!(reportable_percentile(100), Some(90.0));
        assert_eq!(reportable_percentile(200), Some(95.0));
        assert_eq!(reportable_percentile(1_000), Some(99.0));
        assert_eq!(reportable_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_and_spread_agree_with_the_cut_points() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        let s = summarize(&v);
        assert_eq!((s.n, s.min, s.max, s.median), (5, 1.0, 5.0, 3.0));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(spread(&v), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
    }
}
