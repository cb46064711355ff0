//! Series analysis: convergence detection for experiment series (the
//! number the paper reports about its figures — "stabilized in fewer
//! than 25 iterations").

use crate::experiment::IterationRecord;

/// Extracts the response-time series from records.
pub fn response_series(records: &[IterationRecord]) -> Vec<f64> {
    records.iter().map(|r| r.response_ms).collect()
}

/// The iteration after which the series stays within `band` (relative)
/// of its final plateau (mean of the last 5 samples), or `None` if it
/// never settles. This is the notion behind the paper's "drive the
/// system to a stable state in fewer than 25 iterations".
///
/// # Panics
///
/// Panics if `band` is not positive.
///
/// # Example
///
/// ```
/// use rac::convergence_iteration;
///
/// let series: Vec<f64> = (0..20).map(|i| if i < 7 { 1_000.0 - 100.0 * i as f64 } else { 300.0 }).collect();
/// assert_eq!(convergence_iteration(&series, 0.2), Some(7));
/// ```
pub fn convergence_iteration(series: &[f64], band: f64) -> Option<usize> {
    assert!(band > 0.0, "band must be positive");
    if series.len() < 6 {
        return None;
    }
    let tail: f64 = series[series.len() - 5..].iter().sum::<f64>() / 5.0;
    if !tail.is_finite() {
        return None;
    }
    let ok = |v: f64| v.is_finite() && (v - tail).abs() <= band * tail.abs().max(1.0);
    let mut candidate = None;
    for (i, &v) in series.iter().enumerate() {
        if ok(v) {
            candidate.get_or_insert(i);
        } else {
            candidate = None;
        }
    }
    candidate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_finds_the_settle_point() {
        let mut series = vec![2_000.0, 1_500.0, 900.0, 650.0];
        series.extend(vec![500.0; 16]);
        // 650 is outside the 20% band around 500; the run counts as
        // settled from the first in-band sample.
        assert_eq!(convergence_iteration(&series, 0.2), Some(4));
    }

    #[test]
    fn convergence_none_for_unstable_series() {
        // Alternates forever between two far-apart levels.
        let series: Vec<f64> = (0..30)
            .map(|i| if i % 2 == 0 { 100.0 } else { 10_000.0 })
            .collect();
        assert_eq!(convergence_iteration(&series, 0.2), None);
    }

    #[test]
    fn convergence_needs_enough_samples() {
        assert_eq!(convergence_iteration(&[1.0; 5], 0.2), None);
    }

    #[test]
    fn convergence_tolerates_infinite_prefix() {
        let mut series = vec![f64::INFINITY; 3];
        series.extend(vec![100.0; 12]);
        assert_eq!(convergence_iteration(&series, 0.2), Some(3));
    }

    #[test]
    #[should_panic(expected = "band must be positive")]
    fn zero_band_panics() {
        convergence_iteration(&[1.0; 10], 0.0);
    }
}
