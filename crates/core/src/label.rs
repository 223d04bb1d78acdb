//! [`LabelImage`] — the output of every labeling algorithm.

/// A labeled image: background pixels hold 0, each connected component's
/// pixels hold the same label from `1..=num_components`.
///
/// All algorithms number components consecutively, but in one of two
/// orders (see [`crate::algorithm::Numbering`]): raster order of the
/// first pixel (decision-tree scans, run-based, multipass, flood fill)
/// or row-pair scan order (the two-line scans: ARUN, AREMSP, PAREMSP).
/// Outputs within one order compare with `==`; across orders, compare
/// [`LabelImage::canonicalized`] forms (or use
/// `ccl_core::verify::labelings_equivalent`).
#[derive(Clone, PartialEq, Eq)]
pub struct LabelImage {
    width: usize,
    height: usize,
    labels: Vec<u32>,
    num_components: u32,
}

impl LabelImage {
    /// Wraps a raw label buffer.
    ///
    /// # Panics
    /// Panics when `labels.len() != width * height` or when any label
    /// exceeds `num_components`.
    pub fn from_raw(width: usize, height: usize, labels: Vec<u32>, num_components: u32) -> Self {
        assert_eq!(labels.len(), width * height, "label buffer size mismatch");
        debug_assert!(
            labels.iter().all(|&l| l <= num_components),
            "label exceeds component count"
        );
        LabelImage {
            width,
            height,
            labels,
            num_components,
        }
    }

    /// Image width (columns).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height (rows).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of connected components (labels run `1..=num_components`).
    #[inline]
    pub fn num_components(&self) -> u32 {
        self.num_components
    }

    /// Label at `(row, col)`; 0 is background.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u32 {
        debug_assert!(row < self.height && col < self.width);
        self.labels[row * self.width + col]
    }

    /// Read-only view of the row-major label buffer.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.labels
    }

    /// Pixel count of every component, indexed by label
    /// (`sizes[0]` is the background pixel count).
    pub fn component_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_components as usize + 1];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// Bounding box `(min_row, min_col, max_row, max_col)` of every
    /// component, indexed by `label - 1`. Inclusive coordinates.
    pub fn bounding_boxes(&self) -> Vec<(usize, usize, usize, usize)> {
        let mut boxes =
            vec![(usize::MAX, usize::MAX, 0usize, 0usize); self.num_components as usize];
        for r in 0..self.height {
            for c in 0..self.width {
                let l = self.labels[r * self.width + c];
                if l == 0 {
                    continue;
                }
                let b = &mut boxes[l as usize - 1];
                b.0 = b.0.min(r);
                b.1 = b.1.min(c);
                b.2 = b.2.max(r);
                b.3 = b.3.max(c);
            }
        }
        boxes
    }

    /// Centroid (mean row, mean col) of every component, indexed by
    /// `label - 1`.
    pub fn centroids(&self) -> Vec<(f64, f64)> {
        let n = self.num_components as usize;
        let mut sums = vec![(0f64, 0f64, 0usize); n];
        for r in 0..self.height {
            for c in 0..self.width {
                let l = self.labels[r * self.width + c];
                if l != 0 {
                    let s = &mut sums[l as usize - 1];
                    s.0 += r as f64;
                    s.1 += c as f64;
                    s.2 += 1;
                }
            }
        }
        sums.iter()
            .map(|&(sr, sc, n)| (sr / n as f64, sc / n as f64))
            .collect()
    }

    /// Renumbers labels into the canonical order: consecutive `1..=k` by
    /// raster position of each component's first pixel. Two labelings
    /// denote the same partition iff their canonical forms are equal.
    pub fn canonicalized(&self) -> LabelImage {
        let mut remap = vec![0u32; self.num_components as usize + 1];
        let mut next = 0u32;
        let labels = self
            .labels
            .iter()
            .map(|&l| {
                if l == 0 {
                    0
                } else {
                    if remap[l as usize] == 0 {
                        next += 1;
                        remap[l as usize] = next;
                    }
                    remap[l as usize]
                }
            })
            .collect();
        LabelImage {
            width: self.width,
            height: self.height,
            labels,
            num_components: next,
        }
    }
}

impl std::fmt::Debug for LabelImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "LabelImage({}x{}, {} components)",
            self.width, self.height, self.num_components
        )?;
        let max_dim = 32;
        for r in 0..self.height.min(max_dim) {
            for c in 0..self.width.min(max_dim) {
                let l = self.get(r, c);
                if l == 0 {
                    f.write_str("  .")?;
                } else {
                    write!(f, "{l:>3}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LabelImage {
        // 1 1 0 2
        // 0 1 0 2
        // 3 0 0 2
        LabelImage::from_raw(4, 3, vec![1, 1, 0, 2, 0, 1, 0, 2, 3, 0, 0, 2], 3)
    }

    #[test]
    fn accessors() {
        let li = sample();
        assert_eq!(li.get(0, 0), 1);
        assert_eq!(li.get(2, 3), 2);
        assert_eq!(li.get(2, 1), 0);
        assert_eq!(li.num_components(), 3);
    }

    #[test]
    fn component_sizes_count_pixels() {
        let sizes = sample().component_sizes();
        assert_eq!(sizes, vec![5, 3, 3, 1]);
    }

    #[test]
    fn bounding_boxes_are_tight() {
        let boxes = sample().bounding_boxes();
        assert_eq!(boxes[0], (0, 0, 1, 1)); // label 1
        assert_eq!(boxes[1], (0, 3, 2, 3)); // label 2
        assert_eq!(boxes[2], (2, 0, 2, 0)); // label 3
    }

    #[test]
    fn centroids_average_coordinates() {
        let c = sample().centroids();
        assert!((c[2].0 - 2.0).abs() < 1e-12);
        assert!((c[2].1 - 0.0).abs() < 1e-12);
        assert!((c[1].0 - 1.0).abs() < 1e-12);
        assert!((c[1].1 - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn from_raw_checks_size() {
        LabelImage::from_raw(2, 2, vec![0; 3], 0);
    }

    #[test]
    fn canonicalized_renumbers_by_raster_first_pixel() {
        // labels 2 and 1 appear in swapped raster order
        let li = LabelImage::from_raw(3, 1, vec![2, 0, 1], 2);
        let canon = li.canonicalized();
        assert_eq!(canon.as_slice(), &[1, 0, 2]);
        assert_eq!(canon.num_components(), 2);
        // idempotent
        assert_eq!(canon.canonicalized(), canon);
    }

    #[test]
    fn canonicalized_preserves_partition() {
        let li = sample();
        let canon = li.canonicalized();
        assert_eq!(canon, li); // sample is already canonical
        assert_eq!(canon.component_sizes(), li.component_sizes());
    }
}
