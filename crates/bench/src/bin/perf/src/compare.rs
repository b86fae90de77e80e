//! `perf compare A.json B.json`: a parent/change pair, one row per
//! workload and end-to-end metric, never pooled across workloads.
//!
//! Each file holds one or more run sets (`perf run` prints one JSON line
//! per set). The spread of a metric is the interquartile range of its
//! per-set values over their median; a side with a single set has none,
//! and its rows can only read `within-bound` or `regression`.

use crate::json::{self, Value};
use crate::registry::{self, Better, MetricDef};
use crate::stats;

/// The verdict of one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Regression,
    /// The run-to-run spread is wider than the bound and the two sides'
    /// runs overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's values of one metric on one workload, one per run set.
#[derive(Clone, Debug, PartialEq)]
pub struct Side(pub Vec<f64>);

impl Side {
    pub fn median(&self) -> f64 {
        stats::median(&self.0)
    }

    pub fn spread(&self) -> f64 {
        if self.0.len() >= 2 {
            stats::spread(&self.0)
        } else {
            0.0
        }
    }
}

/// Judges `change` against `parent` for a metric with the given direction
/// and bound.
pub fn judge(parent: &Side, change: &Side, better: Better, bound: f64) -> Verdict {
    let (a, b) = (parent.median(), change.median());
    let worse_by = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    let range = |side: &Side| {
        side.0
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            })
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(parent), range(change));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if parent.spread().max(change.spread()) > bound && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    }
}

/// The workload reports of every run set in `text` (one JSON document per
/// line).
fn run_sets(text: &str) -> Result<Vec<Value>, String> {
    let sets = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(json::parse)
        .collect::<Result<Vec<_>, _>>()?;
    if sets.is_empty() {
        return Err("no run set in file".into());
    }
    Ok(sets)
}

fn workload_reports<'a>(sets: &'a [Value], workload: &str) -> Vec<&'a Value> {
    sets.iter()
        .filter_map(|set| set.get("runs").and_then(Value::as_arr))
        .flatten()
        .filter(|run| run.get("workload").and_then(Value::as_str) == Some(workload))
        .collect()
}

fn side(reports: &[&Value], metric: &MetricDef) -> Option<Side> {
    let values: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric.name)?.as_f64())
        .collect();
    (!values.is_empty()).then_some(Side(values))
}

/// `value` to six significant digits, without an exponent.
fn six_digits(value: f64) -> String {
    let magnitude = value.abs().max(f64::MIN_POSITIVE).log10().floor() as i32;
    let decimals = (5 - magnitude).clamp(0, 12) as usize;
    format!("{value:.decimals$}")
}

fn distinct<'a>(reports: &[&'a Value], key: &str) -> Vec<&'a str> {
    let mut seen: Vec<&str> = reports
        .iter()
        .filter_map(|r| r.get(key).and_then(Value::as_str))
        .collect();
    seen.sort_unstable();
    seen.dedup();
    seen
}

/// Renders the comparison table of two report files' contents. The second
/// value is whether any row is a regression.
pub fn compare(parent_text: &str, change_text: &str) -> Result<(String, bool), String> {
    let parent = run_sets(parent_text).map_err(|e| format!("A: {e}"))?;
    let change = run_sets(change_text).map_err(|e| format!("B: {e}"))?;
    let mut out = format!(
        "A: {} run set(s), B: {} run set(s); ratio is B/A, base A\n\n",
        parent.len(),
        change.len()
    );
    out.push_str(&format!(
        "| {:<16} | {:<11} | {:>14} | {:>14} | {:>7} | {:>8} | {:>8} | {:>5} | {:<12} |\n",
        "workload",
        "metric",
        "median A",
        "median B",
        "B/A",
        "spread A",
        "spread B",
        "bound",
        "verdict"
    ));
    out.push_str(&format!(
        "|{}|{}|{}|{}|{}|{}|{}|{}|{}|\n",
        "-".repeat(18),
        "-".repeat(13),
        "-".repeat(16),
        "-".repeat(16),
        "-".repeat(9),
        "-".repeat(10),
        "-".repeat(10),
        "-".repeat(7),
        "-".repeat(14)
    ));
    let mut regressed = false;
    for def in &registry::WORKLOADS {
        let a = workload_reports(&parent, def.name);
        let b = workload_reports(&change, def.name);
        if a.is_empty() || b.is_empty() {
            out.push_str(&format!("| {:<16} | missing on one side\n", def.name));
            continue;
        }
        for metric in &registry::END_TO_END {
            let (Some(sa), Some(sb)) = (side(&a, metric), side(&b, metric)) else {
                continue;
            };
            let bound = metric.bound.expect("end-to-end metrics are bounded");
            let verdict = judge(&sa, &sb, metric.better, bound);
            regressed |= verdict == Verdict::Regression;
            out.push_str(&format!(
                "| {:<16} | {:<11} | {:>14} | {:>14} | {:>7.4} | {:>7.2}% | {:>7.2}% | {:>4.1}% | {:<12} |\n",
                def.name,
                metric.name,
                six_digits(sa.median()),
                six_digits(sb.median()),
                sb.median() / sa.median(),
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                bound * 100.0,
                verdict.as_str()
            ));
        }
        // Exact columns: failures, and whether the outputs are the same.
        let failed = |reports: &[&Value]| -> f64 {
            reports
                .iter()
                .filter_map(|r| r.get("failed").and_then(Value::as_f64))
                .sum()
        };
        // Equal when both sides saw the same digests (one per seed run).
        let same = distinct(&a, "result_digest") == distinct(&b, "result_digest");
        if failed(&a) + failed(&b) > 0.0 {
            regressed = true;
        }
        out.push_str(&format!(
            "| {:<16} | failed A {} / B {}; result_digest {}\n",
            def.name,
            failed(&a),
            failed(&b),
            if same {
                "equal"
            } else {
                "differs (other seeds or other outputs)"
            }
        ));
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        Side(values.to_vec())
    }

    #[test]
    fn verdicts_follow_bound_spread_and_overlap() {
        let parent = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // 3% slower throughput: inside a 7% bound.
        let near = side(&[97.0, 98.0, 96.0, 97.5, 96.5]);
        assert_eq!(
            judge(&parent, &near, Better::Higher, 0.07),
            Verdict::WithinBound
        );
        // 20% slower: a regression.
        let slow = side(&[80.0, 81.0, 79.0, 80.5, 79.5]);
        assert_eq!(
            judge(&parent, &slow, Better::Higher, 0.07),
            Verdict::Regression
        );
        // ... and an improvement when lower is better.
        assert_eq!(
            judge(&parent, &slow, Better::Lower, 0.07),
            Verdict::WithinBound
        );
        // Runs scattered wider than the bound and overlapping: unresolved.
        let noisy = side(&[80.0, 120.0, 95.0, 105.0, 70.0]);
        assert_eq!(
            judge(&parent, &noisy, Better::Higher, 0.07),
            Verdict::Unresolved
        );
        // Scattered, but every run worse than every parent run: resolved.
        let noisy_slow = side(&[40.0, 80.0, 55.0, 65.0, 30.0]);
        assert_eq!(
            judge(&parent, &noisy_slow, Better::Higher, 0.07),
            Verdict::Regression
        );
    }

    fn report(throughput: f64) -> String {
        let run = |w: &registry::WorkloadDef| {
            format!(
                "{{\"workload\":\"{}\",\"failed\":0,\"result_digest\":\"0x01\",\
                 \"metrics\":{{\"throughput\":{throughput},\"cpu_s\":1.0,\
                 \"setup_s\":0.5,\"peak_rss_mb\":10.0,\"ok_share\":1.0}}}}",
                w.name
            )
        };
        let runs: Vec<String> = registry::WORKLOADS.iter().map(run).collect();
        format!("{{\"runs\":[{}]}}\n", runs.join(","))
    }

    #[test]
    fn table_has_one_row_per_workload_and_metric_with_the_ratio_base() {
        let (table, regressed) = compare(&report(100.0), &report(99.0)).unwrap();
        assert!(!regressed);
        assert!(table.contains("ratio is B/A, base A"));
        for w in &registry::WORKLOADS {
            for m in &registry::END_TO_END {
                let row = table
                    .lines()
                    .find(|l| l.contains(w.name) && l.contains(&format!("| {:<11} |", m.name)));
                assert!(row.is_some(), "{} x {}", w.name, m.name);
            }
        }
        assert!(table.contains("0.9900"));
        assert_eq!(six_digits(32_778_359.965), "32778360");
        assert_eq!(six_digits(0.000_195_076), "0.000195076");
        assert_eq!(six_digits(21.381_958), "21.3820");
        let (table, regressed) = compare(&report(100.0), &report(70.0)).unwrap();
        assert!(regressed && table.contains("regression"));
        assert!(compare("", &report(1.0)).is_err());
    }
}
