//! Order statistics for every number the benchmark reports.
//!
//! One rule serves both latency percentiles and the run-to-run spread:
//! Python's `statistics.quantiles(data, n=n)` with its default
//! "exclusive" method, ported exactly, so a spread computed here matches
//! one computed from the printed values in Python.

/// The `n - 1` cut points dividing `values` into `n` groups of equal
/// probability (Python's `statistics.quantiles(values, n=n)`). A single
/// value is every cut point; an empty sample has none.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    assert!(n >= 2, "quantiles need at least two groups");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return Vec::new(),
        1 => return vec![data[0]; n - 1],
        _ => {}
    }
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            // Exact integer arithmetic, as in Python: `i*m - j*n` may
            // exceed `n` at the clamped ends, which extrapolates.
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        })
        .collect()
}

/// The `p`-th percentile (`1..=99`) of `values`: cut point `p` of
/// [`quantiles`] with `n = 100`.
pub fn percentile(values: &[f64], p: usize) -> f64 {
    assert!((1..=99).contains(&p), "percentile {p} out of 1..=99");
    quantiles(values, 100)
        .get(p - 1)
        .copied()
        .unwrap_or(f64::NAN)
}

/// The fewest samples that leave at least ten beyond the `p`-th
/// percentile — the condition for reporting that percentile at all.
pub fn min_samples(p: usize) -> usize {
    (10usize * 100).div_ceil(100 - p)
}

/// The median (the middle cut point of [`quantiles`] with `n = 2`).
pub fn median(values: &[f64]) -> f64 {
    quantiles(values, 2).first().copied().unwrap_or(f64::NAN)
}

/// Quartile `k` (1, 2 or 3) of `values`, kept within their range: with
/// fewer than four values the rule of [`quantiles`] extrapolates past
/// it. `NaN` when empty.
pub fn quartile(values: &[f64], k: usize) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    quantiles(values, 4)
        .get(k - 1)
        .map_or(f64::NAN, |q| q.clamp(lo, hi))
}

/// Mean of `values` (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median, third quartile and the spread
/// `(q3 - q1) / median` of a set of run results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// The quartiles of `values`.
    pub fn of(values: &[f64]) -> Spread {
        let q = quantiles(values, 4);
        Spread {
            q1: q.first().copied().unwrap_or(f64::NAN),
            median: median(values),
            q3: q.get(2).copied().unwrap_or(f64::NAN),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    // Expected values come from CPython's `statistics.quantiles`.
    #[test]
    fn quantiles_match_python() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&ten, 4), vec![2.75, 5.5, 8.25]);
        assert_eq!(quantiles(&[3.0, 1.0, 2.0], 4), vec![1.0, 2.0, 3.0]);
        assert_eq!(quantiles(&[5.0, 7.0], 4), vec![4.5, 6.0, 7.5]);
        let d: Vec<f64> = (1..=100u32).map(|i| f64::from(i * i % 37)).collect();
        assert!(close(percentile(&d, 50), 18.5));
        assert!(close(percentile(&d, 90), 34.0));
        assert!(close(percentile(&d, 99), 36.0));
        assert_eq!(quantiles(&[4.0], 4), vec![4.0; 3]);
        assert!(quantiles(&[], 4).is_empty());
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Spread::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert!(close(s.share(), (8.25 - 2.75) / 5.5));
    }

    #[test]
    fn quartiles_stay_within_the_values() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile(&ten, 1), 2.75);
        assert_eq!(quartile(&ten, 3), 8.25);
        // Python gives 4.5 and 7.5 here, outside the values.
        assert_eq!(quartile(&[5.0, 7.0], 1), 5.0);
        assert_eq!(quartile(&[5.0, 7.0], 3), 7.0);
        assert_eq!(quartile(&[4.0], 1), 4.0);
        assert!(quartile(&[], 1).is_nan());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(99), 1000);
        for p in 1..=99 {
            let beyond = |n: usize| n * (100 - p) / 100;
            assert!(beyond(min_samples(p)) >= 10);
            assert!(beyond(min_samples(p) - 1) < 10);
        }
    }
}
