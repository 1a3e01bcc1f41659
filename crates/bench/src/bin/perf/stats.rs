//! Order statistics for timings and latencies: medians with min/max and
//! sample count, nearest-rank percentiles, and the quartile spread the
//! repeatability check is defined on.

/// A timing reported the way the issue asks: median with min/max and the
/// number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sort(&mut sorted);
        Some(Summary {
            median: median_sorted(&sorted)?,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        })
    }

    /// A single observation (counts, ratios, one-shot timings).
    pub fn one(value: f64) -> Summary {
        Summary { median: value, min: value, max: value, n: 1 }
    }
}

/// Ascending sort; samples are wall-clock measurements, never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Median (mean of the two middle samples for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    median_sorted(&sorted)
}

/// Nearest-rank percentile of an ascending series: the smallest sample
/// with at least `p` of the series at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method) — the definition the
/// repeatability criterion uses. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    sort(&mut data);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread a bound is compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let median = median(values)?;
    (median != 0.0).then(|| (q3 - q1) / median.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let s = Summary::of(&[2.0, 9.0, 4.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (4.0, 2.0, 9.0, 3));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let series: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&series, 0.50), Some(50.0));
        assert_eq!(percentile(&series, 0.99), Some(99.0));
        assert_eq!(percentile(&series, 0.999), Some(100.0));
        assert_eq!(percentile(&series, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(1.0));
        assert_eq!(spread(&[5.0, 5.0, 5.0]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }
}
