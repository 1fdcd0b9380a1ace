//! Order statistics for latency samples and run-to-run spreads.

/// The value at quantile `q` (0..=1) of `values` by the nearest-rank
/// rule: the smallest sample with at least `q` of the samples at or
/// below it. `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The tolerance keeps `0.9 * 100`, which rounds to just above 90,
    // at rank 90.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (0 for an empty slice, which callers only
/// reach for layers that did not run on a workload).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The highest of the candidate percentiles that still has at least
/// ten samples beyond it in a set of `n` samples — the tail a run of
/// that size can report without resting on a handful of outliers.
/// "Beyond" follows [`quantile`]'s nearest-rank rule: the samples
/// ranked above the one reported. `None` when even the median has
/// fewer than ten samples above it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per mille, so the rank arithmetic is exact.
    const CANDIDATES: [usize; 6] = [999, 990, 950, 900, 750, 500];
    CANDIDATES
        .into_iter()
        .find(|p| n - (p * n).div_ceil(1000) >= 10)
        .map(|p| p as f64 / 1000.0)
}

/// First quartile, median and third quartile computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method, which extrapolates for tiny samples), so
/// run-to-run spreads read the same as the acceptance check computes
/// them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond_the_tail() {
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(9_999), Some(0.99));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(99), Some(0.75));
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(19), None);
        for n in [20usize, 57, 100, 333, 1_000, 12_345] {
            let p = highest_supported_percentile(n).unwrap();
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let beyond = v.iter().filter(|&&x| x > quantile(&v, p).unwrap()).count();
            assert!(beyond >= 10, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
