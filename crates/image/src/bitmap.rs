//! [`BinaryImage`] — the 0/1 raster that every labeling algorithm consumes.
//!
//! Following §III of the paper, object (foreground) pixels hold value 1 and
//! background pixels hold value 0. We store one byte per pixel: the scan
//! phases of the labeling algorithms are branch-heavy inner loops and the
//! byte representation lets them read neighbours without bit arithmetic.

use crate::error::ImageError;

/// A binary (two-valued) image with byte-per-pixel storage, row-major.
#[derive(Clone, PartialEq, Eq)]
pub struct BinaryImage {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl BinaryImage {
    /// Creates an all-background image of the given dimensions.
    ///
    /// # Panics
    /// Panics if `width * height` overflows `usize`.
    pub fn zeros(width: usize, height: usize) -> Self {
        let pixels = width
            .checked_mul(height)
            .expect("image dimensions overflow");
        BinaryImage {
            width,
            height,
            data: vec![0u8; pixels],
        }
    }

    /// Creates an all-foreground image of the given dimensions.
    pub fn ones(width: usize, height: usize) -> Self {
        let mut img = Self::zeros(width, height);
        img.data.fill(1);
        img
    }

    /// Builds an image by evaluating `f(row, col)` for every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut img = Self::zeros(width, height);
        for r in 0..height {
            for c in 0..width {
                img.data[r * width + c] = u8::from(f(r, c));
            }
        }
        img
    }

    /// Wraps an existing buffer of 0/1 bytes.
    ///
    /// Returns an error when the buffer length does not equal
    /// `width * height` or when any byte is neither 0 nor 1.
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Result<Self, ImageError> {
        if width.checked_mul(height) != Some(data.len()) {
            return Err(ImageError::Dimensions {
                width,
                height,
                buffer_len: Some(data.len()),
            });
        }
        // An OR over the whole buffer exceeds 1 exactly when some byte
        // does, and unlike a search it vectorizes: decoded bands pay one
        // fast pass, only a bad buffer a second.
        if data.iter().fold(0, |m, &b| m | b) > 1 {
            let index = data.iter().position(|&b| b > 1).expect("a byte above 1");
            return Err(ImageError::InvalidPixel {
                index,
                value: data[index],
            });
        }
        Ok(BinaryImage {
            width,
            height,
            data,
        })
    }

    /// Parses a compact string picture: `#`/`1` are foreground, `.`/`0`
    /// background; rows are separated by whitespace. Intended for tests.
    ///
    /// ```
    /// use ccl_image::BinaryImage;
    /// let img = BinaryImage::parse("##. .#. ..#");
    /// assert_eq!((img.width(), img.height()), (3, 3));
    /// assert_eq!(img.get(0, 0), 1);
    /// assert_eq!(img.get(2, 1), 0);
    /// ```
    ///
    /// # Panics
    /// Panics on ragged rows or characters outside `{#, 1, ., 0}`.
    pub fn parse(picture: &str) -> Self {
        let rows: Vec<&str> = picture.split_whitespace().collect();
        let height = rows.len();
        let width = rows.first().map_or(0, |r| r.chars().count());
        let mut data = Vec::with_capacity(width * height);
        for row in &rows {
            assert_eq!(row.chars().count(), width, "ragged row in picture");
            for ch in row.chars() {
                data.push(match ch {
                    '#' | '1' => 1,
                    '.' | '0' => 0,
                    other => panic!("invalid picture character {other:?}"),
                });
            }
        }
        BinaryImage {
            width,
            height,
            data,
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

    /// Total pixel count (`width * height`).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the image contains no pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Pixel value (0 or 1) at `(row, col)`.
    ///
    /// # Panics
    /// Panics when the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u8 {
        debug_assert!(row < self.height && col < self.width);
        self.data[row * self.width + col]
    }

    /// Pixel value at `(row, col)`, treating out-of-bounds coordinates as
    /// background. Accepts signed coordinates so scan masks can probe above
    /// the first row / left of the first column.
    #[inline]
    pub fn get_or_bg(&self, row: isize, col: isize) -> u8 {
        if row < 0 || col < 0 || row as usize >= self.height || col as usize >= self.width {
            0
        } else {
            self.data[row as usize * self.width + col as usize]
        }
    }

    /// Sets pixel `(row, col)` to foreground (`value = true`) or background.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        debug_assert!(row < self.height && col < self.width);
        self.data[row * self.width + col] = u8::from(value);
    }

    /// Read-only view of the underlying row-major 0/1 buffer.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// One image row as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[u8] {
        let start = row * self.width;
        &self.data[start..start + self.width]
    }

    /// Consumes the image and returns its buffer.
    pub fn into_raw(self) -> Vec<u8> {
        self.data
    }

    /// Number of foreground pixels.
    pub fn count_foreground(&self) -> usize {
        self.data.iter().map(|&b| b as usize).sum()
    }

    /// Fraction of pixels that are foreground, in `[0, 1]`.
    /// Returns 0 for an empty image.
    pub fn density(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.count_foreground() as f64 / self.data.len() as f64
        }
    }

    /// Logical complement: foreground becomes background and vice versa.
    pub fn inverted(&self) -> Self {
        BinaryImage {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&b| 1 - b).collect(),
        }
    }

    /// Transpose: output pixel `(r, c)` equals input pixel `(c, r)`.
    pub fn transposed(&self) -> Self {
        let mut out = BinaryImage::zeros(self.height, self.width);
        for r in 0..self.height {
            for c in 0..self.width {
                out.data[c * self.height + r] = self.data[r * self.width + c];
            }
        }
        out
    }

    /// Extracts the sub-image with top-left corner `(row, col)` and the
    /// given dimensions.
    ///
    /// # Panics
    /// Panics when the window exceeds the image bounds.
    pub fn crop(&self, row: usize, col: usize, width: usize, height: usize) -> Self {
        assert!(row + height <= self.height && col + width <= self.width);
        let mut out = BinaryImage::zeros(width, height);
        for r in 0..height {
            let src = (row + r) * self.width + col;
            out.data[r * width..(r + 1) * width].copy_from_slice(&self.data[src..src + width]);
        }
        out
    }

    /// Returns a copy surrounded by a `margin`-pixel background border.
    pub fn padded(&self, margin: usize) -> Self {
        let mut out = BinaryImage::zeros(self.width + 2 * margin, self.height + 2 * margin);
        for r in 0..self.height {
            let dst = (r + margin) * out.width + margin;
            out.data[dst..dst + self.width]
                .copy_from_slice(&self.data[r * self.width..(r + 1) * self.width]);
        }
        out
    }

    /// Iterator over `(row, col)` coordinates of all foreground pixels,
    /// in raster order.
    pub fn foreground_pixels(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let width = self.width;
        self.data
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v == 1)
            .map(move |(i, _)| (i / width, i % width))
    }

    /// Size of the raw pixel buffer in bytes (1 byte per pixel). The paper
    /// reports image sizes in megabytes of binary raster; this is that
    /// figure in bytes.
    pub fn raster_bytes(&self) -> usize {
        self.data.len()
    }
}

impl std::fmt::Debug for BinaryImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "BinaryImage({}x{})", self.width, self.height)?;
        // Cap debug rendering so huge images stay printable.
        let max_dim = 64;
        for r in 0..self.height.min(max_dim) {
            for c in 0..self.width.min(max_dim) {
                f.write_str(if self.get(r, c) == 1 { "#" } else { "." })?;
            }
            if self.width > max_dim {
                f.write_str("…")?;
            }
            writeln!(f)?;
        }
        if self.height > max_dim {
            writeln!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BinaryImage::zeros(4, 3);
        assert_eq!(z.count_foreground(), 0);
        assert_eq!((z.width(), z.height(), z.len()), (4, 3, 12));
        let o = BinaryImage::ones(4, 3);
        assert_eq!(o.count_foreground(), 12);
        assert!((o.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_fn_checkerboard() {
        let img = BinaryImage::from_fn(4, 4, |r, c| (r + c) % 2 == 0);
        assert_eq!(img.count_foreground(), 8);
        assert_eq!(img.get(0, 0), 1);
        assert_eq!(img.get(0, 1), 0);
    }

    #[test]
    fn from_raw_validates_length() {
        assert!(matches!(
            BinaryImage::from_raw(3, 3, vec![0; 8]),
            Err(ImageError::Dimensions { .. })
        ));
    }

    #[test]
    fn from_raw_validates_values() {
        let err = BinaryImage::from_raw(2, 2, vec![0, 1, 2, 0]).unwrap_err();
        assert!(matches!(
            err,
            ImageError::InvalidPixel { index: 2, value: 2 }
        ));
    }

    #[test]
    fn from_raw_accepts_valid() {
        let img = BinaryImage::from_raw(2, 2, vec![0, 1, 1, 0]).unwrap();
        assert_eq!(img.get(0, 1), 1);
        assert_eq!(img.get(1, 1), 0);
    }

    #[test]
    fn parse_round_trips_with_get() {
        let img = BinaryImage::parse(
            "#..#
             .##.
             #..#",
        );
        assert_eq!((img.width(), img.height()), (4, 3));
        assert_eq!(img.get(1, 1), 1);
        assert_eq!(img.get(2, 3), 1);
        assert_eq!(img.get(0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn parse_rejects_ragged() {
        BinaryImage::parse("## #");
    }

    #[test]
    fn get_or_bg_outside_is_zero() {
        let img = BinaryImage::ones(2, 2);
        assert_eq!(img.get_or_bg(-1, 0), 0);
        assert_eq!(img.get_or_bg(0, -1), 0);
        assert_eq!(img.get_or_bg(2, 0), 0);
        assert_eq!(img.get_or_bg(0, 2), 0);
        assert_eq!(img.get_or_bg(1, 1), 1);
    }

    #[test]
    fn set_then_get() {
        let mut img = BinaryImage::zeros(3, 3);
        img.set(1, 2, true);
        assert_eq!(img.get(1, 2), 1);
        img.set(1, 2, false);
        assert_eq!(img.get(1, 2), 0);
    }

    #[test]
    fn inverted_twice_is_identity() {
        let img = BinaryImage::parse("#.# .#. #.#");
        assert_eq!(img.inverted().inverted(), img);
        assert_eq!(
            img.inverted().count_foreground(),
            img.len() - img.count_foreground()
        );
    }

    #[test]
    fn transpose_twice_is_identity() {
        let img = BinaryImage::parse("#... .##. ..##");
        let t = img.transposed();
        assert_eq!((t.width(), t.height()), (3, 4));
        assert_eq!(t.get(3, 2), img.get(2, 3));
        assert_eq!(t.transposed(), img);
    }

    #[test]
    fn crop_extracts_window() {
        let img = BinaryImage::parse(
            "####
             #..#
             #..#
             ####",
        );
        let inner = img.crop(1, 1, 2, 2);
        assert_eq!(inner.count_foreground(), 0);
        let edge = img.crop(0, 0, 4, 1);
        assert_eq!(edge.count_foreground(), 4);
    }

    #[test]
    fn padded_adds_background_border() {
        let img = BinaryImage::ones(2, 2);
        let p = img.padded(2);
        assert_eq!((p.width(), p.height()), (6, 6));
        assert_eq!(p.count_foreground(), 4);
        assert_eq!(p.get(2, 2), 1);
        assert_eq!(p.get(0, 0), 0);
    }

    #[test]
    fn foreground_pixels_in_raster_order() {
        let img = BinaryImage::parse(".#. #.# .#.");
        let px: Vec<_> = img.foreground_pixels().collect();
        assert_eq!(px, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
    }

    #[test]
    fn row_slices() {
        let img = BinaryImage::parse("##. ..#");
        assert_eq!(img.row(0), &[1, 1, 0]);
        assert_eq!(img.row(1), &[0, 0, 1]);
    }

    #[test]
    fn empty_image() {
        let img = BinaryImage::zeros(0, 0);
        assert!(img.is_empty());
        assert_eq!(img.density(), 0.0);
        assert_eq!(img.foreground_pixels().count(), 0);
    }

    #[test]
    fn debug_render_contains_rows() {
        let img = BinaryImage::parse("#. .#");
        let s = format!("{img:?}");
        assert!(s.contains("#."));
        assert!(s.contains(".#"));
    }
}
