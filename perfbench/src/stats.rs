//! Order statistics for the reported timings.

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of `sorted` (ascending):
/// the smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples. The
/// epsilon absorbs binary rounding of values such as 99.9 × 1000.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// Whether percentile `p` of `n` samples leaves at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= MIN_BEYOND
}

/// The highest of `candidates` (ascending) supported by `n` samples.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&p| percentile_supported(n, p))
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        let odd = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&odd, 50.0), 2.0);
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(percentile_supported(100, 90.0));
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert!(!percentile_supported(99, 90.0));
        assert!(!percentile_supported(0, 50.0));
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
    }

    #[test]
    fn highest_supported_percentile() {
        let candidates = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported(15, &candidates), None);
        assert_eq!(highest_supported(20, &candidates), Some(50.0));
        assert_eq!(highest_supported(150, &candidates), Some(90.0));
        assert_eq!(highest_supported(1000, &candidates), Some(99.0));
        assert_eq!(highest_supported(10_000, &candidates), Some(99.9));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
