//! Timing harness for the table/figure binaries.
//!
//! Criterion drives the statistical micro-benchmarks; [`time_best_of`]
//! drives the *table generators*, which need one wall-clock number per
//! (algorithm, image) cell the way the paper measured them: best of a few
//! repetitions after a warm-up run.

use std::time::Instant;

/// Best-of-`reps` timing in milliseconds (one untimed warm-up first).
/// `reps` is clamped to ≥ 1.
pub fn time_best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let reps = reps.max(1);
    std::hint::black_box(f()); // warm-up: page in buffers, warm caches
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_is_not_larger_than_a_single_run() {
        let work = || {
            let mut x = 0u64;
            for i in 0..200_000 {
                x = x.wrapping_add(i * i);
            }
            x
        };
        let t0 = Instant::now();
        std::hint::black_box(work());
        let single = t0.elapsed().as_secs_f64() * 1e3;
        let best = time_best_of(5, work);
        // generous slack: the best of 5 should not exceed 5x one run
        assert!(best <= single * 5.0 + 5.0);
        assert!(best > 0.0);
    }

    #[test]
    fn reps_clamped_to_one() {
        let ms = time_best_of(0, || 1 + 1);
        assert!(ms.is_finite());
    }
}
