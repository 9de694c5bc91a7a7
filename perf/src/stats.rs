//! Order statistics the report is built from.

/// Median of `values` (mean of the two middle ones for an even count).
/// `values` must be non-empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method), so the
/// quartiles printed here are the ones the acceptance spread is taken from.
/// Fewer than two values have no spread: both quartiles are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |k: usize| -> f64 {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Percentiles a tail may be reported at, in per mille, lowest first.
const TAIL_LADDER: [u64; 5] = [500, 900, 950, 990, 999];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it, as `(percentile, value)` (nearest rank). `None` below
/// twenty samples, where not even the median qualifies.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as u64;
    let beyond = |per_mille: u64| n * (1000 - per_mille) / 1000;
    let per_mille = TAIL_LADDER.iter().copied().rfind(|&p| beyond(p) >= 10)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((per_mille as f64 / 10.0, v[(n - 1 - beyond(per_mille)) as usize]))
}

/// Least-squares slope of `y` on `x` (0 when `x` does not vary).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx > 0.0 {
        sxy / sxx
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        assert_eq!(tail(&v(19)), None, "19 samples: p50 has only 9 beyond");
        assert_eq!(tail(&v(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&v(99)), Some((50.0, 50.0)), "p90 of 99 has 9 beyond");
        assert_eq!(tail(&v(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&v(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&v(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&v(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn slope_recovers_a_line() {
        let pts: Vec<(f64, f64)> =
            (0..10).map(|i| (f64::from(i), 3.0 + 0.5 * f64::from(i))).collect();
        assert!((slope(&pts) - 0.5).abs() < 1e-12);
        assert_eq!(slope(&[(1.0, 2.0), (1.0, 5.0)]), 0.0, "no variation in x");
    }
}
