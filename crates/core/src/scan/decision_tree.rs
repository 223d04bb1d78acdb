//! Decision-tree scan — the paper's Algorithm 4 (from Wu, Otoo & Suzuki).
//!
//! Processes the chunk one line at a time with the Fig. 1a forward mask
//! (`a b c` above, `d` left). The decision tree of Fig. 2 orders the
//! neighbour tests so that, on average, half the neighbours are never
//! inspected: `b` subsumes everything when present; otherwise `c` decides
//! whether one merge is needed and with whom.

use std::ops::Range;

use ccl_image::BinaryImage;
use ccl_unionfind::EquivalenceStore;

use super::scan_row;

/// Runs the decision-tree scan over `rows` of `image`.
///
/// * `labels` — chunk-local label buffer, `rows.len() * image.width()`
///   entries, pre-zeroed; row `rows.start + i` maps to buffer row `i`.
/// * `store` — label-equivalence backend; `first_label` — the first
///   provisional label this chunk may use (1 for sequential use).
///
/// Rows above `rows.start` are treated as background (chunk semantics).
/// Returns the next unused label, i.e. the chunk created labels
/// `first_label..returned`.
///
/// # Panics
/// Panics when the buffer size does not match the chunk.
pub fn scan_decision_tree<S: EquivalenceStore>(
    image: &BinaryImage,
    rows: Range<usize>,
    labels: &mut [u32],
    store: &mut S,
    first_label: u32,
) -> u32 {
    let w = image.width();
    assert_eq!(labels.len(), rows.len() * w, "label buffer size mismatch");
    let mut next = first_label;
    for (lr, r) in rows.enumerate() {
        next = scan_row(image.row(r), labels, w, lr, store, next);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccl_unionfind::{RemSP, UnionFind};

    /// Scan the whole image sequentially; return (labels, created, store).
    fn scan(img: &BinaryImage) -> (Vec<u32>, u32, RemSP) {
        let mut labels = vec![0u32; img.len()];
        let mut store = RemSP::new();
        store.new_label(0);
        let next = scan_decision_tree(img, 0..img.height(), &mut labels, &mut store, 1);
        (labels, next - 1, store)
    }

    #[test]
    fn empty_image_creates_no_labels() {
        let (labels, created, _) = scan(&BinaryImage::zeros(5, 4));
        assert_eq!(created, 0);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn solid_image_creates_one_label() {
        let (labels, created, _) = scan(&BinaryImage::ones(6, 3));
        assert_eq!(created, 1);
        assert!(labels.iter().all(|&l| l == 1));
    }

    #[test]
    fn two_separate_blobs_two_labels() {
        let img = BinaryImage::parse(
            "##..
             ##..
             ...#",
        );
        let (labels, created, _) = scan(&img);
        assert_eq!(created, 2);
        assert_eq!(labels[0], 1);
        assert_eq!(labels[11], 2);
    }

    #[test]
    fn u_shape_merges_via_equivalence() {
        // Left and right arms get different provisional labels; the bottom
        // bar forces a merge.
        let img = BinaryImage::parse(
            "#.#
             #.#
             ###",
        );
        let (_, created, mut store) = scan(&img);
        assert_eq!(created, 2);
        assert!(store.same(1, 2));
    }

    #[test]
    fn diagonal_connectivity_is_eight() {
        let img = BinaryImage::parse(
            "#.
             .#",
        );
        let (labels, created, _) = scan(&img);
        assert_eq!(created, 1);
        assert_eq!(labels, vec![1, 0, 0, 1]);
    }

    #[test]
    fn anti_diagonal_connectivity() {
        let img = BinaryImage::parse(
            ".#
             #.",
        );
        let (labels, created, _) = scan(&img);
        // c-neighbour path: pixel (1,0) sees (0,1) as its c mask position
        assert_eq!(created, 1);
        assert_eq!(labels, vec![0, 1, 1, 0]);
    }

    #[test]
    fn chunk_semantics_ignore_rows_above() {
        let img = BinaryImage::parse(
            "###
             ###",
        );
        // scanning only row 1 must not see row 0
        let mut labels = vec![0u32; 3];
        let mut store = RemSP::new();
        store.new_label(0);
        let next = scan_decision_tree(&img, 1..2, &mut labels, &mut store, 1);
        assert_eq!(next, 2);
        assert_eq!(labels, vec![1, 1, 1]);
    }

    #[test]
    fn first_label_offset_respected() {
        let img = BinaryImage::parse("#.#");
        let mut labels = vec![0u32; 3];
        // labels 0..10 pre-registered, so the scan's first label is 10
        let mut store = RemSP::new();
        for _ in 0..10 {
            store.make_set();
        }
        let next = scan_decision_tree(&img, 0..1, &mut labels, &mut store, 10);
        assert_eq!(next, 12);
        assert_eq!(labels, vec![10, 0, 11]);
    }

    #[test]
    fn w_pattern_merges_all() {
        // staircase requiring several merges
        let img = BinaryImage::parse(
            "#.#.#
             #####",
        );
        let (_, created, mut store) = scan(&img);
        assert_eq!(created, 3);
        assert!(store.same(1, 2));
        assert!(store.same(2, 3));
    }
}
