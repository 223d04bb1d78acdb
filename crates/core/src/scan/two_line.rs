//! Two-line scan — the paper's Algorithm 6 (scan strategy of He, Chao &
//! Suzuki's ARUN).
//!
//! Processes two image rows at a time with the Fig. 1b mask: for the pixel
//! pair `e` (top) / `g` (bottom) at column `c`, the already-labeled
//! neighbours are `a b c` on the row above the pair and `d` / `f`
//! immediately left of `e` / `g`. Labeling both rows of a pair in one
//! sweep halves the number of line traversals — the source of ARUN's (and
//! AREMSP's) advantage over the one-line decision tree in Table II.
//!
//! Two corrections to the printed pseudocode (verified by the exhaustive
//! oracle tests in `tests/exhaustive_small.rs`):
//!
//! 1. Algorithm 6 line 14 drops an argument; the intended call is
//!    `merge(p, label(e), label(a))`.
//! 2. The copy `label(g) ← label(e)` appears only under the `d = 1`
//!    branch; `g` is 8-adjacent to `e`, so the copy must happen in every
//!    branch where both are foreground.

use std::ops::Range;

use ccl_image::BinaryImage;
use ccl_unionfind::EquivalenceStore;

use super::scan_row;

/// Runs the two-line scan over the window `rows × cols` of `image`.
/// Same contract as [`super::scan_decision_tree`]: window-local `labels`
/// buffer, label numbering starts at `first_label`, pixels outside the
/// window read as background, returns the next unused label. Whole-image
/// callers pass `0..image.width()` as `cols`.
///
/// A trailing odd row (chunk of odd height) is scanned with the one-line
/// decision tree, which shares the same mask for the top row of a pair.
///
/// # Panics
/// Panics when the buffer size does not match the window.
pub fn scan_two_line<S: EquivalenceStore>(
    image: &BinaryImage,
    rows: Range<usize>,
    cols: Range<usize>,
    labels: &mut [u32],
    store: &mut S,
    first_label: u32,
) -> u32 {
    let w = cols.len();
    assert_eq!(labels.len(), rows.len() * w, "label buffer size mismatch");
    let line = |r: usize| &image.row(rows.start + r)[cols.clone()];
    let nrows = rows.len();
    let mut next = first_label;
    let mut lr = 0usize;
    while lr + 1 < nrows {
        next = scan_pair(line(lr), line(lr + 1), labels, w, lr, store, next);
        lr += 2;
    }
    if lr < nrows {
        next = scan_row(line(lr), labels, w, lr, store, next);
    }
    next
}

/// Scans one row pair (Algorithm 6 body, with the two fixes).
#[inline]
fn scan_pair<S: EquivalenceStore>(
    top: &[u8],
    bot: &[u8],
    labels: &mut [u32],
    w: usize,
    lr: usize,
    store: &mut S,
    mut next_label: u32,
) -> u32 {
    let e_base = lr * w;
    let g_base = (lr + 1) * w;
    let up = lr.checked_sub(1).map(|u| u * w);
    for c in 0..w {
        let e_fg = top[c] == 1;
        let g_fg = bot[c] == 1;
        if e_fg {
            // d = (e-row, c-1)
            let ld = if c > 0 { labels[e_base + c - 1] } else { 0 };
            let lab;
            if ld != 0 {
                // e continues the run from d; b (if present) is already
                // equivalent to d via d's own scan step. Only c needs a
                // merge, and only when b is absent.
                lab = ld;
                let lb = up.map_or(0, |u| labels[u + c]);
                if lb == 0 {
                    let lc = if c + 1 < w {
                        up.map_or(0, |u| labels[u + c + 1])
                    } else {
                        0
                    };
                    if lc != 0 {
                        store.merge(lab, lc);
                    }
                }
            } else {
                let lb = up.map_or(0, |u| labels[u + c]);
                if lb != 0 {
                    // b subsumes a and c (same-row adjacency above); f is
                    // not adjacent to b and needs an explicit merge.
                    lab = lb;
                    let lf = if c > 0 { labels[g_base + c - 1] } else { 0 };
                    if lf != 0 {
                        store.merge(lab, lf);
                    }
                } else {
                    let lf = if c > 0 { labels[g_base + c - 1] } else { 0 };
                    if lf != 0 {
                        lab = lf;
                        // fix 1: merge with a (diagonal, unconnected to f)
                        let la = if c > 0 {
                            up.map_or(0, |u| labels[u + c - 1])
                        } else {
                            0
                        };
                        if la != 0 {
                            store.merge(lab, la);
                        }
                        let lc = if c + 1 < w {
                            up.map_or(0, |u| labels[u + c + 1])
                        } else {
                            0
                        };
                        if lc != 0 {
                            store.merge(lab, lc);
                        }
                    } else {
                        let la = if c > 0 {
                            up.map_or(0, |u| labels[u + c - 1])
                        } else {
                            0
                        };
                        if la != 0 {
                            lab = la;
                            let lc = if c + 1 < w {
                                up.map_or(0, |u| labels[u + c + 1])
                            } else {
                                0
                            };
                            if lc != 0 {
                                store.merge(lab, lc);
                            }
                        } else {
                            let lc = if c + 1 < w {
                                up.map_or(0, |u| labels[u + c + 1])
                            } else {
                                0
                            };
                            if lc != 0 {
                                lab = lc;
                            } else {
                                store.new_label(next_label);
                                lab = next_label;
                                next_label += 1;
                            }
                        }
                    }
                }
            }
            labels[e_base + c] = lab;
            if g_fg {
                // fix 2: g is 8-adjacent to e in every branch.
                labels[g_base + c] = lab;
            }
        } else if g_fg {
            // e background: g's already-scanned neighbours are d (diagonal
            // above-left, on the e-row) and f (left).
            let ld = if c > 0 { labels[e_base + c - 1] } else { 0 };
            let lab = if ld != 0 {
                // f (if present) is already equivalent to d: the pair
                // (d, f) was labeled together at column c-1.
                ld
            } else {
                let lf = if c > 0 { labels[g_base + c - 1] } else { 0 };
                if lf != 0 {
                    lf
                } else {
                    store.new_label(next_label);
                    next_label += 1;
                    next_label - 1
                }
            };
            labels[g_base + c] = lab;
        }
    }
    next_label
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccl_unionfind::{RemSP, UnionFind};

    fn scan(img: &BinaryImage) -> (Vec<u32>, u32, RemSP) {
        let mut labels = vec![0u32; img.len()];
        let mut store = RemSP::new();
        store.new_label(0);
        let next = scan_two_line(
            img,
            0..img.height(),
            0..img.width(),
            &mut labels,
            &mut store,
            1,
        );
        (labels, next - 1, store)
    }

    /// Resolve provisional labels to set minima for comparison.
    fn resolved(img: &BinaryImage) -> Vec<u32> {
        let (labels, _, mut store) = scan(img);
        labels.iter().map(|&l| store.find(l)).collect()
    }

    #[test]
    fn empty_and_solid() {
        let (l0, c0, _) = scan(&BinaryImage::zeros(4, 4));
        assert_eq!(c0, 0);
        assert!(l0.iter().all(|&l| l == 0));
        let (l1, c1, _) = scan(&BinaryImage::ones(4, 4));
        assert_eq!(c1, 1);
        assert!(l1.iter().all(|&l| l == 1));
    }

    #[test]
    fn vertical_pair_copies_e_to_g() {
        let img = BinaryImage::parse(
            "#
             #",
        );
        let (labels, created, _) = scan(&img);
        assert_eq!(created, 1);
        assert_eq!(labels, vec![1, 1]);
    }

    #[test]
    fn g_row_new_label_when_e_background() {
        let img = BinaryImage::parse(
            "..
             .#",
        );
        let (labels, created, _) = scan(&img);
        assert_eq!(created, 1);
        assert_eq!(labels, vec![0, 0, 0, 1]);
    }

    #[test]
    fn g_connects_to_d_diagonally() {
        let img = BinaryImage::parse(
            "#.
             .#",
        );
        let (labels, created, _) = scan(&img);
        assert_eq!(created, 1);
        assert_eq!(labels, vec![1, 0, 0, 1]);
    }

    #[test]
    fn g_connects_to_f_horizontally() {
        let img = BinaryImage::parse(
            "..
             ##",
        );
        let (labels, created, _) = scan(&img);
        assert_eq!(created, 1);
        assert_eq!(labels, vec![0, 0, 1, 1]);
    }

    #[test]
    fn fix1_a_merge_is_applied() {
        // e at (2,1) takes f's label; a at (1,0) must be merged in.
        // Rows: pair 0 = rows 0-1, pair 1 = rows 2-3.
        let img = BinaryImage::parse(
            "...
             #..
             .#.
             #..",
        );
        let res = resolved(&img);
        // pixels (1,0), (2,1), (3,0) all one component
        assert_eq!(res[3], res[7]);
        assert_eq!(res[7], res[9]);
    }

    #[test]
    fn fix2_g_copied_in_every_branch() {
        // e labeled via b (not d); g below must still copy e.
        let img = BinaryImage::parse(
            ".#.
             .#.
             .#.
             ...",
        );
        let (labels, created, _) = scan(&img);
        assert_eq!(created, 1);
        assert_eq!(labels[1], 1);
        assert_eq!(labels[4], 1);
        assert_eq!(labels[7], 1);
    }

    #[test]
    fn u_shape_merges() {
        let img = BinaryImage::parse(
            "#.#
             #.#
             ###
             ...",
        );
        let res = resolved(&img);
        let left = res[0];
        assert_ne!(left, 0);
        assert_eq!(res[2], left);
        assert_eq!(res[8], left);
    }

    #[test]
    fn odd_height_trailing_row_connects() {
        let img = BinaryImage::parse(
            "#..
             #..
             ##.",
        );
        let (labels, created, _) = scan(&img);
        assert_eq!(created, 1);
        assert_eq!(labels[6], 1);
        assert_eq!(labels[7], 1);
    }

    #[test]
    fn pair_bound_respected_on_adversarial_pattern() {
        // e-row all background, g-row alternating: creates exactly ceil(w/2).
        let img = BinaryImage::parse(
            "........
             #.#.#.#.",
        );
        let (_, created, _) = scan(&img);
        assert_eq!(created as usize, 4);
        assert_eq!(super::super::max_labels_two_line(2, 8), 4);
    }

    #[test]
    fn chunk_offset_and_row_range() {
        let img = BinaryImage::parse(
            "###
             ###
             ###
             ###",
        );
        // scan only rows 2..4 with label offset 5 (labels 0..5 pre-registered)
        let mut labels = vec![0u32; 6];
        let mut store = RemSP::new();
        for _ in 0..5 {
            store.make_set();
        }
        let next = scan_two_line(&img, 2..4, 0..3, &mut labels, &mut store, 5);
        assert_eq!(next, 6);
        assert!(labels.iter().all(|&l| l == 5));
    }

    #[test]
    fn column_window_equals_scanning_the_crop() {
        let mut state = 7u64;
        let mut rnd = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        for trial in 0..400 {
            let (w, h) = (1 + rnd(12), 1 + rnd(9));
            let density = rnd(5);
            let img = BinaryImage::from_fn(w, h, |_, _| rnd(4) < density);
            // windows at the left edge, at the right edge, one column
            // wide, and anywhere
            let c0 = [0, w - 1, rnd(w), rnd(w)][trial % 4];
            let c1 = [1 + rnd(w), w, c0 + 1, c0 + 1 + rnd(w - c0)][trial % 4];
            let r0 = rnd(h);
            let rows = r0..r0 + 1 + rnd(h - r0);
            let crop = img.crop(rows.start, c0, c1 - c0, rows.len());
            let ctx = format!("trial {trial}: {w}x{h}, rows {rows:?}, cols {c0}..{c1}");

            let (want, want_next, mut want_store) = scan(&crop);
            let mut labels = vec![0u32; crop.len()];
            let mut store = RemSP::new();
            store.new_label(0);
            let next = scan_two_line(&img, rows, c0..c1, &mut labels, &mut store, 1);
            assert_eq!(labels, want, "{ctx}");
            assert_eq!(next - 1, want_next, "{ctx}");
            for l in 0..next {
                assert_eq!(store.find(l), want_store.find(l), "{ctx}, label {l}");
            }
        }
    }

    #[test]
    fn matches_decision_tree_after_resolution() {
        use crate::scan::scan_decision_tree;
        // deterministic pseudo-random images
        let mut state = 99u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as u8 & 1
        };
        for trial in 0..30 {
            let w = 3 + (trial % 7);
            let h = 2 + (trial % 5);
            let img = BinaryImage::from_fn(w, h, |_, _| rnd() == 1);
            // two-line + RemSP, fully resolved
            let a = resolved(&img);
            // decision tree + RemSP, fully resolved
            let mut labels = vec![0u32; img.len()];
            let mut store = RemSP::new();
            store.new_label(0);
            scan_decision_tree(&img, 0..h, &mut labels, &mut store, 1);
            let b: Vec<u32> = labels.iter().map(|&l| store.find(l)).collect();
            // same partition: compare zero-patterns and co-labeling
            assert_eq!(
                a.iter().map(|&x| x == 0).collect::<Vec<_>>(),
                b.iter().map(|&x| x == 0).collect::<Vec<_>>(),
                "trial {trial}"
            );
            let mut map = std::collections::HashMap::new();
            for (&x, &y) in a.iter().zip(&b) {
                if x != 0 {
                    assert_eq!(*map.entry(x).or_insert(y), y, "trial {trial}");
                }
            }
        }
    }
}
