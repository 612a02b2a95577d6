//! Order statistics over small sample sets.

/// Sorts `values` and returns their median (mean of the two middle values
/// for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN — both are harness bugs.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Sorts `values` and returns the nearest-rank `p`-th percentile
/// (`0 < p <= 100`): the smallest sample with at least `p` percent of the
/// samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    assert!(!values.is_empty(), "percentile of no samples");
    values.sort_unstable();
    let rank = (p / 100.0 * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Geometric mean of positive `values`.
pub fn geo_mean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut v, 99.0), 990, "ten samples lie beyond p99 of 1000");
        assert_eq!(percentile(&mut v, 100.0), 1000);
        assert_eq!(percentile(&mut v, 50.0), 500);
        assert_eq!(percentile(&mut [5], 99.0), 5);
        assert_eq!(percentile(&mut [1, 2], 0.1), 1);
    }

    #[test]
    fn geo_mean_of_positive_values() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
