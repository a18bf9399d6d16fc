//! Order statistics the benchmark reports: medians over segments and
//! percentiles over latency samples.

/// How many samples must lie beyond a percentile for it to be reported
/// (fewer, and the "percentile" is one or two outliers).
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values when the
/// count is even).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) —
/// the same spread the acceptance rule for this benchmark uses.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn iqr_frac(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "spread needs two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    // A port of CPython's exclusive method, clamping included.
    let (n, m) = (v.len() as i64, v.len() as i64 + 1);
    let quartile = |i: i64| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// The `p`-th percentile (0 < p < 100) of `sorted`, nearest-rank.
///
/// Returns `None` unless at least [`MIN_BEYOND`] samples lie beyond
/// the returned one.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples are sorted");
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    (sorted.len() - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((iqr_frac(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), Some(500));
        // p99 of 1000 samples is rank 990: exactly 10 samples beyond it.
        assert_eq!(percentile(&v, 99.0), Some(990));
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&short, 99.0), None, "only 9 samples beyond rank 990");
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10));
        assert_eq!(percentile(&v[..19], 50.0), None);
    }
}
