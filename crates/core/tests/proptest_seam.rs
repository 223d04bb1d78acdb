//! Property tests for the column/strided orientation of `merge_seam`:
//! merging a **vertical** seam between two side-by-side label buffers
//! with [`merge_seam_strided`] yields exactly the partition obtained by
//! transposing both buffers, merging the resulting **row** seam with the
//! original [`merge_seam`], and transposing back — i.e. the strided walk
//! really is the row seam on the transposed image.

use proptest::prelude::*;

use ccl_core::scan::{max_labels_two_line, merge_seam, merge_seam_strided, scan_two_line};
use ccl_image::BinaryImage;
use ccl_unionfind::{EquivalenceStore, RemSP, UnionFind};

/// Labels the left and right halves of `img` (split before column
/// `split`) independently into one shared store with disjoint label
/// ranges — the state both seam paths start from.
fn label_halves(img: &BinaryImage, split: usize) -> (Vec<u32>, Vec<u32>, RemSP, u32) {
    let (w, h) = (img.width(), img.height());
    let left = img.crop(0, 0, split, h);
    let right = img.crop(0, split, w - split, h);
    let mut store = RemSP::with_capacity(1 + max_labels_two_line(h, w));
    store.new_label(0);
    let mut left_labels = vec![0u32; left.len()];
    let next = scan_two_line(&left, 0..h, 0..split, &mut left_labels, &mut store, 1);
    let mut right_labels = vec![0u32; right.len()];
    let next = scan_two_line(
        &right,
        0..h,
        0..w - split,
        &mut right_labels,
        &mut store,
        next,
    );
    (left_labels, right_labels, store, next)
}

/// Transposes a row-major `rows × cols` label buffer.
fn transpose(labels: &[u32], rows: usize, cols: usize) -> Vec<u32> {
    let mut out = vec![0u32; labels.len()];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = labels[r * cols + c];
        }
    }
    out
}

/// Canonical partition of labels `1..next`: each label mapped to its
/// set's representative.
fn partition(store: &mut RemSP, next: u32) -> Vec<u32> {
    (1..next).map(|l| store.find(l)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Satellite acceptance: vertical seam merge ≡ transpose, row-merge,
    /// transpose back — for arbitrary split positions and densities.
    #[test]
    fn vertical_seam_equals_transposed_row_seam(
        w in 2usize..=16,
        h in 1usize..=16,
        split_frac in 1usize..=15,
        density in 0u64..=100,
        seed in 0u64..10_000,
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let img = BinaryImage::from_fn(w, h, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 100 < density
        });
        let split = 1 + split_frac % (w - 1).max(1);
        let split = split.min(w - 1);

        // Path A: strided column seam directly on the two buffers.
        let (left, right, mut store_a, next) = label_halves(&img, split);
        let lw = split;
        let rw = w - split;
        merge_seam_strided(&left[lw - 1..], lw, &right, rw, h, &mut store_a);

        // Path B: transpose both halves; the left half's right column is
        // the last row of its transpose, the right half's left column the
        // first row of its transpose — a plain row seam.
        let (left_b, right_b, mut store_b, next_b) = label_halves(&img, split);
        prop_assert_eq!(next, next_b);
        let tl = transpose(&left_b, h, lw);
        let tr = transpose(&right_b, h, rw);
        merge_seam(&tl[(lw - 1) * h..], &tr[..h], &mut store_b);

        prop_assert_eq!(
            partition(&mut store_a, next),
            partition(&mut store_b, next),
            "split {} of width {}", split, w
        );
    }

    /// The seam-merged halves agree with labeling the unsplit image: the
    /// column seam restores exactly the connectivity the split severed.
    #[test]
    fn seamed_halves_match_whole_image_partition(
        w in 2usize..=14,
        h in 1usize..=14,
        split_frac in 1usize..=15,
        density in 20u64..=80,
        seed in 0u64..10_000,
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let img = BinaryImage::from_fn(w, h, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 100 < density
        });
        let split = 1 + split_frac % (w - 1).max(1);
        let split = split.min(w - 1);

        let (left, right, mut store, _) = label_halves(&img, split);
        merge_seam_strided(&left[split - 1..], split, &right, w - split, h, &mut store);
        // resolve each pixel's label to its set representative
        let mut resolved = vec![0u32; w * h];
        for r in 0..h {
            for c in 0..w {
                let l = if c < split {
                    left[r * split + c]
                } else {
                    right[r * (w - split) + (c - split)]
                };
                resolved[r * w + c] = if l == 0 { 0 } else { store.find(l) };
            }
        }
        // reference: whole-image AREMSP
        let reference = ccl_core::seq::aremsp(&img);
        // same-partition check: bijection between resolved reps and
        // reference labels over foreground pixels
        let mut fwd = std::collections::HashMap::new();
        let mut bwd = std::collections::HashMap::new();
        for (i, &l) in resolved.iter().enumerate() {
            let rl = reference.as_slice()[i];
            prop_assert_eq!(l == 0, rl == 0, "foreground mismatch at {}", i);
            if l != 0 {
                prop_assert_eq!(*fwd.entry(l).or_insert(rl), rl);
                prop_assert_eq!(*bwd.entry(rl).or_insert(l), l);
            }
        }
    }
}
