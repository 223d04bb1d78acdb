//! Component analysis built on top of labeling — the operations the
//! paper's motivating applications (inspection, character recognition,
//! medical imaging) run after CCL: hole counts, whole-image and per
//! label, and per-component region properties.
//!
//! Hole counting labels the *background* under the complementary
//! connectivity (4-connected background for 8-connected foreground, the
//! standard duality under which every enclosed background region is one
//! hole).

use ccl_image::{BinaryImage, Connectivity};

use crate::label::LabelImage;
use crate::seq::flood::flood_fill_label_with;

/// Number of holes: background components (under the connectivity dual
/// to `conn`) that do not touch the image border.
pub fn count_holes(image: &BinaryImage, conn: Connectivity) -> u32 {
    let dual = match conn {
        Connectivity::Eight => Connectivity::Four,
        Connectivity::Four => Connectivity::Eight,
    };
    let bg = image.inverted();
    let labels = flood_fill_label_with(&bg, dual);
    let (w, h) = (image.width(), image.height());
    if w == 0 || h == 0 {
        return 0;
    }
    let mut touches_border = vec![false; labels.num_components() as usize + 1];
    for c in 0..w {
        touches_border[labels.get(0, c) as usize] = true;
        touches_border[labels.get(h - 1, c) as usize] = true;
    }
    for r in 0..h {
        touches_border[labels.get(r, 0) as usize] = true;
        touches_border[labels.get(r, w - 1) as usize] = true;
    }
    (1..=labels.num_components() as usize)
        .filter(|&l| !touches_border[l])
        .count() as u32
}

/// Per-component hole counts (8-connected foreground / 4-connected
/// background) from a labeling, via a direct `χ = V − E + F` census of
/// every component's closed pixel complex in one O(pixels) pass:
/// `holes = 1 − χ` for a connected component. Any two pixels sharing a
/// vertex or an edge of the complex are 8-adjacent — hence in the same
/// component — so every cell belongs to exactly one label and per-label
/// counting is well-defined. Index `l - 1` holds label `l`'s count.
///
/// This is the whole-image oracle for the streamed Euler fold in
/// `ccl-stream` (`ComponentRecord::holes`).
pub fn count_holes_per_label(labels: &LabelImage) -> Vec<u64> {
    let (w, h) = (labels.width() as isize, labels.height() as isize);
    let get = |r: isize, c: isize| -> u32 {
        if r < 0 || c < 0 || r >= h || c >= w {
            0
        } else {
            labels.get(r as usize, c as usize)
        }
    };
    let mut chi = vec![0i64; labels.num_components() as usize + 1];
    // faces (pixels)
    for r in 0..h {
        for c in 0..w {
            let l = get(r, c);
            if l != 0 {
                chi[l as usize] += 1;
            }
        }
    }
    // vertices (grid points), owned by any incident pixel's label
    for r in 0..=h {
        for c in 0..=w {
            let owner = [get(r - 1, c - 1), get(r - 1, c), get(r, c - 1), get(r, c)]
                .into_iter()
                .find(|&l| l != 0);
            if let Some(l) = owner {
                chi[l as usize] += 1;
            }
        }
    }
    // horizontal edges between squares (r-1, c) and (r, c)
    for r in 0..=h {
        for c in 0..w {
            if let Some(l) = [get(r - 1, c), get(r, c)].into_iter().find(|&l| l != 0) {
                chi[l as usize] -= 1;
            }
        }
    }
    // vertical edges between squares (r, c-1) and (r, c)
    for r in 0..h {
        for c in 0..=w {
            if let Some(l) = [get(r, c - 1), get(r, c)].into_iter().find(|&l| l != 0) {
                chi[l as usize] -= 1;
            }
        }
    }
    chi.iter().skip(1).map(|&x| (1 - x).max(0) as u64).collect()
}

/// Per-component summary produced by [`region_properties`].
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// The component's label.
    pub label: u32,
    /// Pixel count.
    pub area: usize,
    /// Inclusive bounding box `(min_row, min_col, max_row, max_col)`.
    pub bbox: (usize, usize, usize, usize),
    /// Centroid `(mean_row, mean_col)`.
    pub centroid: (f64, f64),
    /// Area divided by bounding-box area, in `(0, 1]` (1 = solid box).
    pub extent: f64,
}

/// Computes per-component properties from a labeling.
pub fn region_properties(labels: &LabelImage) -> Vec<Region> {
    let sizes = labels.component_sizes();
    let boxes = labels.bounding_boxes();
    let centroids = labels.centroids();
    (1..=labels.num_components() as usize)
        .map(|l| {
            let bbox = boxes[l - 1];
            let bbox_area = (bbox.2 - bbox.0 + 1) * (bbox.3 - bbox.1 + 1);
            Region {
                label: l as u32,
                area: sizes[l],
                bbox,
                centroid: centroids[l - 1],
                extent: sizes[l] as f64 / bbox_area as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::flood_fill_label;

    #[test]
    fn holes_in_ring() {
        let ring = BinaryImage::parse(
            "#####
             #...#
             #####",
        );
        assert_eq!(count_holes(&ring, Connectivity::Eight), 1);
        let solid = BinaryImage::ones(4, 4);
        assert_eq!(count_holes(&solid, Connectivity::Eight), 0);
    }

    #[test]
    fn per_label_holes_census() {
        // figure-eight (2 holes), a lone pixel (0), and a diagonal-gap
        // ring (1 hole) — per component, attributed by label
        let img = BinaryImage::parse(
            "#####..##
             #.#.#.#.#
             #####.##.",
        );
        let labels = flood_fill_label(&img);
        let per_label = count_holes_per_label(&labels);
        assert_eq!(per_label.len(), labels.num_components() as usize);
        let mut sorted = per_label.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
        let total: u64 = per_label.iter().sum();
        assert_eq!(total, count_holes(&img, Connectivity::Eight) as u64);

        let empty = count_holes_per_label(&flood_fill_label(&BinaryImage::zeros(3, 3)));
        assert!(empty.is_empty());
    }

    #[test]
    fn diagonal_gap_is_not_a_hole_under_8conn() {
        // 8-connected foreground ring with a diagonal "leak": under the
        // 4-connected background dual, the inside still cannot escape.
        let img = BinaryImage::parse(
            "##.
             #.#
             .##",
        );
        // foreground is one 8-connected component; center is enclosed by
        // 4-connectivity rules
        assert_eq!(count_holes(&img, Connectivity::Eight), 1);
    }

    #[test]
    fn double_hole_euler() {
        let img = BinaryImage::parse(
            "#########
             #..###..#
             #########",
        );
        assert_eq!(count_holes(&img, Connectivity::Eight), 2);
    }

    #[test]
    fn region_properties_basics() {
        let img = BinaryImage::parse(
            "##..
             ##..
             ...#",
        );
        let labels = flood_fill_label(&img);
        let regions = region_properties(&labels);
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].area, 4);
        assert_eq!(regions[0].bbox, (0, 0, 1, 1));
        assert!((regions[0].extent - 1.0).abs() < 1e-12);
        assert!((regions[0].centroid.0 - 0.5).abs() < 1e-12);
        assert_eq!(regions[1].area, 1);
        assert_eq!(regions[1].bbox, (2, 3, 2, 3));
    }

    #[test]
    fn empty_image_edge_cases() {
        let empty = BinaryImage::zeros(0, 0);
        assert_eq!(count_holes(&empty, Connectivity::Eight), 0);
        assert!(region_properties(&flood_fill_label(&empty)).is_empty());
    }
}
