//! `perf compare A B`: two result sets of the same benchmark, one verdict
//! per end-to-end (or demoted end-to-end) metric × workload.
//!
//! A set is what repeated `perf run … --record FILE` calls append: ten
//! untraced runs per workload give each metric a median and a run-to-run
//! spread (first-to-third-quartile distance over the median). `B`'s
//! median may be worse than `A`'s by at most the metric's bound; where
//! either spread is wider than the bound the pairing is *unresolved*, not
//! unchanged, unless every run of `B` reads better than every run of `A`.
//! Quality and recall, deterministic for one seed, are also judged seed by
//! seed against the issue's absolute bounds. Counts declared exact must be
//! equal wherever both sets ran a seed.

use crate::catalog::{self, Better, Tier};
use crate::record::Stored;
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Judged {
    pub verdict: Verdict,
    pub median_a: f64,
    pub median_b: f64,
    /// `median_b / median_a` (base: `A`).
    pub ratio: f64,
    /// Share of `A`'s median by which `B` is worse (negative = better).
    pub worse_by: f64,
    /// The wider of the two spreads; `None` with fewer than two runs a side.
    pub spread: Option<f64>,
}

/// Judges `b` against the base `a`. `None` when a side has no runs or
/// the base median is zero.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Option<Judged> {
    let (median_a, median_b) = (stats::median(a)?, stats::median(b)?);
    if median_a == 0.0 {
        return None;
    }
    let ratio = median_b / median_a;
    let worse_by = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let spread = match (stats::spread(a), stats::spread(b)) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (one, other) => one.or(other),
    };
    let b_always_better = match better {
        Better::Lower => b.iter().all(|&b| a.iter().all(|&a| b < a)),
        Better::Higher => b.iter().all(|&b| a.iter().all(|&a| b > a)),
    };
    let verdict = if spread.is_some_and(|s| s > bound) && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    };
    Some(Judged { verdict, median_a, median_b, ratio, worse_by, spread })
}

/// The comparison table and whether anything regressed (or an exact
/// count differed).
pub fn compare(a: &[Stored], b: &[Stored]) -> (String, bool) {
    let mut out = String::new();
    let mut failed = false;
    if a.iter().chain(b).any(|r| r.smoke) {
        let _ = writeln!(out, "note: smoke-scale records are ignored (not comparable)");
    }
    let series = |set: &[Stored], workload: &str, trace: bool, name: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| r.workload == workload && r.trace == trace && !r.smoke)
            .filter_map(|r| r.metrics.get(name).copied())
            .collect()
    };
    let _ = writeln!(
        out,
        "{:<18} {:<20} {:>12} {:>12} {:>9} {:>8} {:>7} {:>4} {:>4}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "spread", "bound", "nA", "nB"
    );
    for workload in &catalog::WORKLOADS {
        for (metric, bound) in catalog::compared() {
            let (runs_a, runs_b) = (
                series(a, workload.name, false, metric.name),
                series(b, workload.name, false, metric.name),
            );
            let Some(judged) = judge(&runs_a, &runs_b, metric.better, bound) else { continue };
            failed |= judged.verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<18} {:<20} {:>12.4} {:>12.4} {:>8.3}x {:>8} {:>6.1}% {:>4} {:>4}  {}{}",
                workload.name,
                metric.name,
                judged.median_a,
                judged.median_b,
                judged.ratio,
                judged.spread.map_or("n/a".to_owned(), |s| format!("{:.1}%", s * 100.0)),
                bound * 100.0,
                runs_a.len(),
                runs_b.len(),
                judged.verdict.name(),
                if matches!(metric.tier, Tier::Demoted) { " (demoted)" } else { "" },
            );
        }
    }
    // Deterministic metrics, seed by seed: the medians above move with
    // the dataset instances a set happened to run, one seed's value moves
    // only with the program.
    let by_seed = |set: &[Stored], workload: &str, name: &str| -> BTreeMap<u64, f64> {
        set.iter()
            .filter(|r| r.workload == workload && !r.trace && !r.smoke)
            .filter_map(|r| Some((r.seed, *r.metrics.get(name)?)))
            .collect()
    };
    for workload in &catalog::WORKLOADS {
        for (name, tolerance) in catalog::PER_SEED {
            let better = catalog::metric(name).expect("a declared metric").better;
            let (seeds_a, seeds_b) =
                (by_seed(a, workload.name, name), by_seed(b, workload.name, name));
            let worse_by = seeds_a.iter().filter_map(|(seed, a)| {
                let b = seeds_b.get(seed)?;
                Some((*seed, if better == Better::Higher { a - b } else { b - a }))
            });
            let compared = worse_by.clone().count();
            let Some((seed, worst)) = worse_by.max_by(|x, y| x.1.total_cmp(&y.1)) else { continue };
            let verdict = if worst > tolerance { Verdict::Regressed } else { Verdict::WithinBound };
            failed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<18} {:<20} per seed: {compared} seeds in both, worst {worst:+.4} (seed {seed}), \
                 tolerance {tolerance}  {}",
                workload.name,
                name,
                verdict.name(),
            );
        }
    }
    // Exact counts: equal for every (workload, seed) both sets traced.
    let exact_of = |set: &[Stored]| -> BTreeMap<(String, u64, &'static str), Vec<f64>> {
        let mut counts: BTreeMap<_, Vec<f64>> = BTreeMap::new();
        for record in set.iter().filter(|r| r.trace && !r.smoke) {
            for metric in catalog::METRICS.iter().filter(|m| m.exact) {
                if let Some(&value) = record.metrics.get(metric.name) {
                    counts
                        .entry((record.workload.clone(), record.seed, metric.name))
                        .or_default()
                        .push(value);
                }
            }
        }
        counts
    };
    let (counts_a, counts_b) = (exact_of(a), exact_of(b));
    let mut checked = 0;
    for (key, values) in &counts_a {
        let Some(others) = counts_b.get(key) else { continue };
        checked += 1;
        if values.iter().chain(others).any(|v| v != &values[0]) {
            failed = true;
            let _ = writeln!(
                out,
                "exact count differs: {} seed {} {}: A {:?} B {:?}",
                key.0, key.1, key.2, values, others
            );
        }
    }
    let _ = writeln!(out, "exact counts compared: {checked}");
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [10.0, 10.1, 9.9, 10.05, 9.95];

    fn scaled(by: f64) -> Vec<f64> {
        STEADY.iter().map(|v| v * by).collect()
    }

    #[test]
    fn small_moves_either_way_stay_within_bound() {
        for by in [1.0, 1.05, 0.8] {
            let judged = judge(&STEADY, &scaled(by), Better::Lower, 0.10).unwrap();
            assert_eq!(judged.verdict, Verdict::WithinBound, "×{by}");
            assert!((judged.ratio - by).abs() < 1e-9);
        }
    }

    #[test]
    fn a_median_worse_than_the_bound_regresses_in_the_metrics_direction() {
        let slower = judge(&STEADY, &scaled(1.2), Better::Lower, 0.10).unwrap();
        assert_eq!(slower.verdict, Verdict::Regressed);
        assert!((slower.worse_by - 0.2).abs() < 1e-9);
        // The same move is an improvement for a higher-is-better metric…
        let more = judge(&STEADY, &scaled(1.2), Better::Higher, 0.10).unwrap();
        assert_eq!(more.verdict, Verdict::WithinBound);
        // …and a drop is the regression.
        let less = judge(&STEADY, &scaled(0.8), Better::Higher, 0.10).unwrap();
        assert_eq!(less.verdict, Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [8.0, 12.0, 10.0, 9.0, 11.0];
        let judged = judge(&noisy, &STEADY, Better::Lower, 0.10).unwrap();
        assert_eq!(judged.verdict, Verdict::Unresolved);
        assert!(judged.spread.unwrap() > 0.10);
        // Every run of B below every run of A: resolved in B's favour.
        let judged = judge(&noisy, &scaled(0.5), Better::Lower, 0.10).unwrap();
        assert_eq!(judged.verdict, Verdict::WithinBound);
        // A noisy regression stays unresolved rather than passing.
        let worse: Vec<f64> = noisy.iter().map(|v| v * 1.5).collect();
        assert_eq!(
            judge(&STEADY, &worse, Better::Lower, 0.10).unwrap().verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn single_runs_compare_by_median_alone() {
        let judged = judge(&[10.0], &[10.5], Better::Lower, 0.10).unwrap();
        assert_eq!((judged.verdict, judged.spread), (Verdict::WithinBound, None));
        assert_eq!(
            judge(&[10.0], &[12.0], Better::Lower, 0.10).unwrap().verdict,
            Verdict::Regressed
        );
        assert_eq!(judge(&[], &[1.0], Better::Lower, 0.10), None);
        assert_eq!(judge(&[0.0], &[1.0], Better::Lower, 0.10), None);
    }

    fn stored(workload: &str, seed: u64, trace: bool, metrics: &[(&str, f64)]) -> Stored {
        Stored {
            workload: workload.to_owned(),
            seed,
            trace,
            smoke: false,
            metrics: metrics.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        }
    }

    #[test]
    fn compare_flags_regressions_and_unequal_exact_counts() {
        let set = |build_s: f64, clusters: f64| {
            vec![
                stored("build_dense", 1, false, &[("build_s", build_s)]),
                stored("build_dense", 2, false, &[("build_s", build_s * 1.01)]),
                stored("build_dense", 1, true, &[("core.clusters", clusters)]),
            ]
        };
        let (table, failed) = compare(&set(10.0, 500.0), &set(10.2, 500.0));
        assert!(!failed, "{table}");
        assert!(table.contains("within-bound"));
        assert!(table.contains("exact counts compared: 1"));

        let (table, failed) = compare(&set(10.0, 500.0), &set(13.0, 500.0));
        assert!(failed && table.contains("regressed"), "{table}");

        let (table, failed) = compare(&set(10.0, 500.0), &set(10.0, 501.0));
        assert!(failed && table.contains("exact count differs"), "{table}");
    }

    #[test]
    fn a_drop_on_one_seed_regresses_even_when_the_medians_agree() {
        let set = |recalls: [f64; 3]| -> Vec<Stored> {
            (1..)
                .zip(recalls)
                .map(|(seed, recall)| {
                    stored("serve_read", seed, false, &[("query_recall_at_10", recall)])
                })
                .collect()
        };
        let base = set([0.36, 0.40, 0.38]);
        let (table, failed) = compare(&base, &set([0.355, 0.40, 0.385]));
        assert!(!failed && table.contains("per seed: 3 seeds in both"), "{table}");
        // Seed 1 loses 0.03 of recall; the median of the three is unmoved.
        let (table, failed) = compare(&base, &set([0.33, 0.40, 0.38]));
        assert!(failed && table.contains("worst +0.0300 (seed 1)"), "{table}");
        // Seeds only one set ran are not paired.
        let (table, failed) = compare(&base[..1], &set([0.36, 0.0, 0.0])[..2]);
        assert!(!failed && table.contains("per seed: 1 seeds in both"), "{table}");
    }
}
