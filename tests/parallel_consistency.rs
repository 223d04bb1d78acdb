//! Concurrency-focused integration tests: PAREMSP determinism, merger
//! equivalence under contention, chunk-boundary coverage.

use ::paremsp::core::par::{paremsp, paremsp_with, MergerKind, ParemspConfig};
use ::paremsp::core::seq::aremsp;
use ::paremsp::datasets::synth::adversarial::comb;
use ::paremsp::datasets::synth::noise::bernoulli;
use ::paremsp::image::BinaryImage;

#[test]
fn dense_thread_sweep_matches_sequential() {
    let img = bernoulli(127, 93, 0.5, 1);
    let seq = aremsp(&img);
    for threads in 1..=32 {
        assert_eq!(paremsp(&img, threads), seq, "{threads} threads");
    }
}

#[test]
fn mergers_agree_under_heavy_boundary_contention() {
    // comb with the bar on a chunk boundary: every tooth merges at the
    // same row, all threads hammering overlapping label chains.
    for bar_row in [0, 15, 16, 29] {
        let img = comb(257, 30, bar_row);
        let seq = aremsp(&img);
        for merger in [MergerKind::Locked, MergerKind::Cas] {
            for stripes in [1, 2, 64] {
                let cfg = ParemspConfig {
                    threads: 15,
                    merger,
                    lock_stripes: Some(stripes),
                };
                let (out, _) = paremsp_with(&img, &cfg);
                assert_eq!(out, seq, "bar={bar_row} {merger:?} stripes={stripes}");
            }
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    // PAREMSP output must be deterministic despite nondeterministic merge
    // interleavings (final labels depend only on the partition).
    let img = bernoulli(301, 211, 0.55, 3);
    let first = paremsp(&img, 24);
    for _ in 0..20 {
        assert_eq!(paremsp(&img, 24), first);
    }
}

#[test]
fn every_density_extreme() {
    for (name, img) in [
        ("empty", BinaryImage::zeros(100, 67)),
        ("full", BinaryImage::ones(100, 67)),
        ("one-pixel", {
            let mut i = BinaryImage::zeros(100, 67);
            i.set(66, 99, true);
            i
        }),
        ("left-column", BinaryImage::from_fn(100, 67, |_, c| c == 0)),
        ("bottom-row", BinaryImage::from_fn(100, 67, |r, _| r == 66)),
    ] {
        let seq = aremsp(&img);
        for threads in [2, 7, 24] {
            assert_eq!(paremsp(&img, threads), seq, "{name} at {threads} threads");
        }
    }
}

#[test]
fn labels_cross_many_boundaries() {
    // vertical lines touch every chunk boundary simultaneously
    let img = BinaryImage::from_fn(64, 96, |_, c| c % 3 == 0);
    let seq = aremsp(&img);
    assert_eq!(seq.num_components(), 22);
    for threads in [2, 4, 8, 16, 24, 48] {
        assert_eq!(paremsp(&img, threads), seq, "{threads} threads");
    }
}

#[test]
fn more_threads_than_rows() {
    let img = bernoulli(64, 3, 0.5, 9);
    let seq = aremsp(&img);
    assert_eq!(paremsp(&img, 100), seq);
}

#[test]
fn phase_timings_sum_to_total() {
    let img = bernoulli(256, 256, 0.5, 11);
    let (_, t) = paremsp_with(&img, &ParemspConfig::with_threads(8));
    let sum = t.scan + t.merge + t.flatten + t.relabel;
    assert_eq!(sum, t.total());
    assert!(t.local_plus_merge() <= t.total());
}
