//! The four two-pass algorithms of the paper, as scan × union-find
//! combinations (Algorithms 1 and 5).
//!
//! Each driver runs three phases on the whole image:
//!
//! 1. **Scan** — provisional labels + equivalence recording,
//! 2. **Analysis** — FLATTEN (Algorithm 3) via [`UnionFind::flatten`],
//! 3. **Labeling** — `label(e) ← p[label(e)]` for every pixel.

use ccl_image::BinaryImage;
use ccl_unionfind::{Compression, HeEquivalence, RankUF, RemSP, UnionFind};

use crate::label::LabelImage;
use crate::scan::{
    max_labels_decision_tree, max_labels_two_line, scan_decision_tree, scan_two_line,
};

/// Which first-pass strategy a two-pass run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStrategy {
    /// One line at a time with the Fig. 2 decision tree (Algorithm 4).
    DecisionTree,
    /// Two lines / two pixels at a time (Algorithm 6).
    TwoLine,
}

impl ScanStrategy {
    /// Upper bound on provisional labels for an `rows × cols` image.
    pub fn max_labels(self, rows: usize, cols: usize) -> usize {
        match self {
            ScanStrategy::DecisionTree => max_labels_decision_tree(rows, cols),
            ScanStrategy::TwoLine => max_labels_two_line(rows, cols),
        }
    }
}

/// Generic two-pass driver: any scan strategy with any union-find backend.
/// This is the paper's Algorithm 1/5 skeleton; the four named algorithms
/// below are instantiations.
pub fn two_pass_with<U: UnionFind>(image: &BinaryImage, scan: ScanStrategy) -> LabelImage {
    let (w, h) = (image.width(), image.height());
    let mut labels = vec![0u32; w * h];
    let mut store = U::with_capacity(1 + scan.max_labels(h, w));
    store.new_label(0); // reserved background
    match scan {
        ScanStrategy::DecisionTree => {
            scan_decision_tree(image, 0..h, &mut labels, &mut store, 1);
        }
        ScanStrategy::TwoLine => {
            scan_two_line(image, 0..h, 0..w, &mut labels, &mut store, 1);
        }
    }
    let num_components = store.flatten();
    for l in &mut labels {
        *l = store.resolve(*l);
    }
    LabelImage::from_raw(w, h, labels, num_components)
}

/// CCLLRPC (Wu–Otoo–Suzuki, the paper's ref \[36\]): decision-tree scan +
/// link-by-rank with path compression.
pub fn ccllrpc(image: &BinaryImage) -> LabelImage {
    // RankUF's default compression is Full — exactly LRPC.
    debug_assert_eq!(RankUF::new().compression(), Compression::Full);
    two_pass_with::<RankUF>(image, ScanStrategy::DecisionTree)
}

/// CCLREMSP (this paper, §III-A): decision-tree scan + RemSP.
pub fn cclremsp(image: &BinaryImage) -> LabelImage {
    two_pass_with::<RemSP>(image, ScanStrategy::DecisionTree)
}

/// ARUN (He–Chao–Suzuki, the paper's ref \[37\]): two-line scan + the
/// `rtable`/`next`/`tail` equivalence structure.
pub fn arun(image: &BinaryImage) -> LabelImage {
    two_pass_with::<HeEquivalence>(image, ScanStrategy::TwoLine)
}

/// AREMSP (this paper, §III-B): two-line scan + RemSP — the paper's best
/// sequential algorithm and the basis of PAREMSP.
///
/// ```
/// use ccl_core::seq::aremsp;
/// use ccl_image::BinaryImage;
///
/// let img = BinaryImage::parse("#.# .#. #.#");
/// let labels = aremsp(&img);
/// assert_eq!(labels.num_components(), 1); // an 8-connected X
/// assert_eq!(labels.get(1, 1), 1);
/// ```
pub fn aremsp(image: &BinaryImage) -> LabelImage {
    two_pass_with::<RemSP>(image, ScanStrategy::TwoLine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_four(img: &BinaryImage) -> [LabelImage; 4] {
        [ccllrpc(img), cclremsp(img), arun(img), aremsp(img)]
    }

    #[test]
    fn all_algorithms_identical_on_fixtures() {
        let fixtures = [
            "....",
            "####",
            "#.#. .#.# #.#.",
            "##.. ##.. ..## ..##",
            "#.# #.# ###",
            ".#. #.# .#.",
            "#...# .#.#. ..#.. .#.#. #...#",
        ];
        for pic in fixtures {
            let img = BinaryImage::parse(pic);
            let [a, b, c, d] = all_four(&img);
            // same scan strategy => bit-identical output
            assert_eq!(a, b, "{pic}: decision-tree group");
            assert_eq!(c, d, "{pic}: two-line group");
            // across scan strategies the numbering order may differ, the
            // partition may not
            assert_eq!(b.canonicalized(), c.canonicalized(), "{pic}: cross-group");
        }
    }

    #[test]
    fn component_counts() {
        let img = BinaryImage::parse(
            "##.#
             ##..
             ...#",
        );
        // {(0,0),(0,1),(1,0),(1,1)}, {(0,3)} and (2,3) joins (0,3)? No:
        // (0,3) and (2,3) are two rows apart -> separate. But (1, ...)
        // nothing. Components: big square, (0,3), (2,3) = 3.
        let li = aremsp(&img);
        assert_eq!(li.num_components(), 3);
        assert_eq!(li.get(0, 0), 1);
        assert_eq!(li.get(0, 3), 2);
        assert_eq!(li.get(2, 3), 3);
    }

    #[test]
    fn labels_are_raster_ordered_and_consecutive() {
        let img = BinaryImage::parse(
            "..#..
             .....
             #...#",
        );
        let li = cclremsp(&img);
        assert_eq!(li.num_components(), 3);
        assert_eq!(li.get(0, 2), 1);
        assert_eq!(li.get(2, 0), 2);
        assert_eq!(li.get(2, 4), 3);
    }

    #[test]
    fn spiral_single_component() {
        let img = BinaryImage::parse(
            "#######
             ......#
             #####.#
             #...#.#
             #.###.#
             #.....#
             #######",
        );
        for li in all_four(&img) {
            assert_eq!(li.num_components(), 1);
        }
    }

    #[test]
    fn empty_and_degenerate_images() {
        for img in [
            BinaryImage::zeros(0, 0),
            BinaryImage::zeros(5, 0),
            BinaryImage::zeros(0, 5),
            BinaryImage::ones(1, 1),
        ] {
            for li in all_four(&img) {
                assert_eq!(li.num_components(), img.count_foreground().min(1) as u32);
            }
        }
    }

    #[test]
    fn single_row_and_single_column() {
        let row = BinaryImage::parse("##.##.#");
        for li in all_four(&row) {
            assert_eq!(li.num_components(), 3);
        }
        let col = row.transposed();
        for li in all_four(&col) {
            assert_eq!(li.num_components(), 3);
        }
    }

    #[test]
    fn generic_driver_accepts_other_backends() {
        use ccl_unionfind::{MinUF, SizeUF};
        let img = BinaryImage::parse("#.# ### #.#");
        let reference = aremsp(&img);
        assert_eq!(
            two_pass_with::<MinUF>(&img, ScanStrategy::TwoLine),
            reference
        );
        assert_eq!(
            two_pass_with::<SizeUF>(&img, ScanStrategy::TwoLine),
            reference
        );
        assert_eq!(
            two_pass_with::<HeEquivalence>(&img, ScanStrategy::DecisionTree),
            reference
        );
    }
}
