//! Speedup computation for Figures 4 and 5.

use serde::Serialize;

/// Speedup of a parallel time over the sequential baseline.
/// Returns 0 for non-positive parallel times (defensive).
pub fn speedup(seq_ms: f64, par_ms: f64) -> f64 {
    if par_ms <= 0.0 {
        0.0
    } else {
        seq_ms / par_ms
    }
}

/// One speedup-vs-threads curve (one line of Figure 4 or 5).
#[derive(Debug, Clone, Serialize)]
pub struct SpeedupSeries {
    /// Curve label (dataset or image name).
    pub label: String,
    /// Thread counts (x axis).
    pub threads: Vec<usize>,
    /// Speedups (y axis), same length as `threads`.
    pub speedups: Vec<f64>,
}

impl SpeedupSeries {
    /// Builds a series from a sequential baseline and per-thread times.
    pub fn from_times(label: impl Into<String>, seq_ms: f64, per_thread: &[(usize, f64)]) -> Self {
        SpeedupSeries {
            label: label.into(),
            threads: per_thread.iter().map(|&(t, _)| t).collect(),
            speedups: per_thread
                .iter()
                .map(|&(_, ms)| speedup(seq_ms, ms))
                .collect(),
        }
    }

    /// Maximum speedup in the series (0 when empty).
    pub fn peak(&self) -> f64 {
        self.speedups.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_speedup() {
        assert_eq!(speedup(100.0, 25.0), 4.0);
        assert_eq!(speedup(100.0, 0.0), 0.0);
        assert_eq!(speedup(100.0, -1.0), 0.0);
    }

    #[test]
    fn series_from_times() {
        let s = SpeedupSeries::from_times("img", 120.0, &[(2, 60.0), (4, 30.0), (8, 20.0)]);
        assert_eq!(s.threads, vec![2, 4, 8]);
        assert_eq!(s.speedups, vec![2.0, 4.0, 6.0]);
        assert_eq!(s.peak(), 6.0);
    }

    #[test]
    fn empty_series_peak_is_zero() {
        let s = SpeedupSeries::from_times("x", 1.0, &[]);
        assert_eq!(s.peak(), 0.0);
    }
}
