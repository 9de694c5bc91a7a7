//! Calibration: fitting model parameters from measurements.
//!
//! The paper seeds its task-performance database with base-processor
//! execution times that "are already measured and stored" (§3). This
//! module performs those calibration fits:
//!
//! - [`fit_base_rate`] — least-squares fit of seconds-per-flop from
//!   `(problem size, seconds)` samples of one task on the base processor;
//! - [`fit_relative_speed`] — estimate a host's relative speed from
//!   paired measurements against the base processor;
//! - [`prediction_error`] — relative error metric used by experiment E8.

use vdce_repository::TaskPerfDb;

/// Least-squares fit (through the origin) of seconds-per-flop for `task`
/// from `(problem_size, measured_seconds)` samples: minimises
/// `Σ (s_i − r · f_i)²` giving `r = Σ s_i f_i / Σ f_i²`.
///
/// Returns `None` for unknown tasks, empty samples, or degenerate fits.
pub fn fit_base_rate(db: &TaskPerfDb, task: &str, samples: &[(u64, f64)]) -> Option<f64> {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for &(n, secs) in samples {
        let flops = db.computation_size(task, n)?;
        if secs.is_nan() || secs <= 0.0 || flops <= 0.0 {
            continue;
        }
        num += secs * flops;
        den += flops * flops;
    }
    if den > 0.0 {
        Some(num / den)
    } else {
        None
    }
}

/// Estimate a host's relative speed from paired samples
/// `(seconds_on_base, seconds_on_host)` of identical work: the base-time /
/// host-time ratio, robustly aggregated by the median.
pub fn fit_relative_speed(pairs: &[(f64, f64)]) -> Option<f64> {
    let mut ratios: Vec<f64> =
        pairs.iter().filter(|(b, h)| *b > 0.0 && *h > 0.0).map(|(b, h)| b / h).collect();
    if ratios.is_empty() {
        return None;
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = ratios.len() / 2;
    Some(if ratios.len() % 2 == 1 { ratios[mid] } else { 0.5 * (ratios[mid - 1] + ratios[mid]) })
}

/// Relative prediction error `|predicted − actual| / actual`.
pub(crate) fn prediction_error(predicted: f64, actual: f64) -> f64 {
    if actual <= 0.0 {
        return f64::INFINITY;
    }
    (predicted - actual).abs() / actual
}

/// Mean relative prediction error over a set of `(predicted, actual)`
/// pairs; `None` if empty.
pub fn mean_prediction_error(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.is_empty() {
        return None;
    }
    Some(pairs.iter().map(|&(p, a)| prediction_error(p, a)).sum::<f64>() / pairs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_base_rate_recovers_exact_rate() {
        let db = TaskPerfDb::standard();
        let rate = 2.5e-8;
        let samples: Vec<(u64, f64)> = [64u64, 128, 256, 512]
            .iter()
            .map(|&n| (n, db.computation_size("Matrix_Multiplication", n).unwrap() * rate))
            .collect();
        let fit = fit_base_rate(&db, "Matrix_Multiplication", &samples).unwrap();
        assert!((fit - rate).abs() / rate < 1e-12);
    }

    #[test]
    fn fit_base_rate_weights_by_flops_under_noise() {
        let db = TaskPerfDb::standard();
        let rate = 1e-7;
        // Small sample is wildly wrong, big sample exact: fit follows big.
        let f_small = db.computation_size("Sort", 10).unwrap();
        let f_big = db.computation_size("Sort", 1_000_000).unwrap();
        let samples = vec![(10u64, f_small * rate * 50.0), (1_000_000u64, f_big * rate)];
        let fit = fit_base_rate(&db, "Sort", &samples).unwrap();
        assert!((fit - rate).abs() / rate < 1e-3);
    }

    #[test]
    fn fit_base_rate_handles_bad_input() {
        let db = TaskPerfDb::standard();
        assert!(fit_base_rate(&db, "Nope", &[(10, 1.0)]).is_none());
        assert!(fit_base_rate(&db, "Sort", &[]).is_none());
        assert!(fit_base_rate(&db, "Sort", &[(10, -1.0)]).is_none());
    }

    #[test]
    fn relative_speed_is_median_of_ratios() {
        // host twice as fast: base 2 s vs host 1 s.
        let pairs = vec![(2.0, 1.0), (4.0, 2.0), (8.0, 4.0)];
        assert!((fit_relative_speed(&pairs).unwrap() - 2.0).abs() < 1e-12);
        // Outlier resistance.
        let noisy = vec![(2.0, 1.0), (4.0, 2.0), (100.0, 1.0)];
        assert!((fit_relative_speed(&noisy).unwrap() - 2.0).abs() < 1e-12);
        assert!(fit_relative_speed(&[]).is_none());
        assert!(fit_relative_speed(&[(0.0, 1.0)]).is_none());
    }

    #[test]
    fn even_count_median_averages() {
        let pairs = vec![(1.0, 1.0), (3.0, 1.0)];
        assert!((fit_relative_speed(&pairs).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn prediction_error_metric() {
        assert_eq!(prediction_error(1.1, 1.0), 0.10000000000000009);
        assert_eq!(prediction_error(0.9, 1.0), 0.09999999999999998);
        assert!(prediction_error(1.0, 0.0).is_infinite());
        assert_eq!(mean_prediction_error(&[(1.1, 1.0), (0.9, 1.0)]).unwrap(), 0.10000000000000004);
        assert!(mean_prediction_error(&[]).is_none());
    }
}
