//! Exhaustive oracle: every algorithm against BFS flood fill on *all*
//! binary images of small sizes. This is the test that pins down the
//! scan-phase case analyses (including the two fixes to the paper's
//! Algorithm 6 pseudocode listed in `ccl_core::scan::two_line`) — any
//! missed merge case must show up here.
//!
//! All algorithms are checked in a single pass per image so the 2^16
//! 4×4 space stays fast; `[profile.test]` enables light optimization.

use paremsp::core::algorithm::Numbering;
use paremsp::core::seq::flood_fill_label;
use paremsp::core::Algorithm;
use paremsp::image::BinaryImage;

fn image_from_bits(width: usize, height: usize, bits: u32) -> BinaryImage {
    BinaryImage::from_fn(width, height, |r, c| (bits >> (r * width + c)) & 1 == 1)
}

/// Checks `algorithms` against the oracle on every image of the given
/// shape, computing each reference exactly once per image.
fn exhaustive_check(width: usize, height: usize, algorithms: &[Algorithm]) {
    let n = width * height;
    assert!(n <= 20, "too many pixels for exhaustive enumeration");
    let needs_pair = algorithms
        .iter()
        .any(|a| a.numbering() == Numbering::PairScan);
    for bits in 0..(1u32 << n) {
        let img = image_from_bits(width, height, bits);
        // flood fill's raster numbering is the canonical form
        let reference = flood_fill_label(&img);
        let pair_reference = if needs_pair {
            let pr = Algorithm::Aremsp.run(&img);
            assert_eq!(
                pr.canonicalized(),
                reference,
                "aremsp partition differs on {width}x{height} bits={bits:#x}\n{img:?}"
            );
            Some(pr)
        } else {
            None
        };
        for algo in algorithms {
            let out = algo.run(&img);
            let expected = match algo.numbering() {
                Numbering::Raster => &reference,
                Numbering::PairScan => pair_reference.as_ref().unwrap(),
            };
            assert_eq!(
                &out,
                expected,
                "{} differs on {width}x{height} bits={bits:#x}\n{img:?}",
                algo.name()
            );
        }
    }
}

#[test]
fn exhaustive_4x4_all_sequential() {
    // one pass over all 65536 images, every sequential algorithm at once
    exhaustive_check(
        4,
        4,
        &[
            Algorithm::Ccllrpc,
            Algorithm::Cclremsp,
            Algorithm::Arun,
            Algorithm::Aremsp,
            Algorithm::RunBased,
            Algorithm::Multipass,
        ],
    );
}

#[test]
fn exhaustive_3x4_paremsp() {
    // threaded algorithm on a smaller exhaustive space (4096 images);
    // chunking differs between 2 and 3 threads, so check both
    exhaustive_check(3, 4, &[Algorithm::Paremsp(2), Algorithm::Paremsp(3)]);
}

#[test]
fn exhaustive_5x3_and_3x5() {
    // rectangular shapes exercise the row-pair boundaries differently
    let algos = [Algorithm::Aremsp, Algorithm::Arun, Algorithm::Cclremsp];
    exhaustive_check(5, 3, &algos);
    exhaustive_check(3, 5, &algos);
}

#[test]
fn exhaustive_2x8_tall_pairs() {
    // height 8 = four row pairs; PAREMSP gets up to 4 chunks
    exhaustive_check(2, 8, &[Algorithm::Aremsp, Algorithm::Paremsp(4)]);
}

#[test]
fn exhaustive_8x2_wide_single_pair() {
    exhaustive_check(8, 2, &[Algorithm::Aremsp, Algorithm::Arun]);
}

#[test]
fn exhaustive_1xn_and_nx1() {
    // single-row and single-column images: pair-scan and raster numbering
    // coincide (one pixel per column step), so exact equality holds for
    // every algorithm here.
    for n in 1..=14 {
        for bits in 0..(1u32 << n) {
            let row = image_from_bits(n, 1, bits);
            let col = image_from_bits(1, n, bits);
            for img in [row, col] {
                let reference = flood_fill_label(&img);
                for algo in [Algorithm::Aremsp, Algorithm::Ccllrpc] {
                    assert_eq!(algo.run(&img), reference, "{} on {img:?}", algo.name());
                }
            }
        }
    }
}
