//! 8-bit grayscale raster, the input to thresholding.

use crate::error::ImageError;

/// An 8-bit grayscale image, row-major.
#[derive(Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl GrayImage {
    /// Creates an all-black image.
    pub fn zeros(width: usize, height: usize) -> Self {
        let pixels = width
            .checked_mul(height)
            .expect("image dimensions overflow");
        GrayImage {
            width,
            height,
            data: vec![0u8; pixels],
        }
    }

    /// Builds an image by evaluating `f(row, col)` for every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u8) -> Self {
        let mut img = Self::zeros(width, height);
        for r in 0..height {
            for c in 0..width {
                img.data[r * width + c] = f(r, c);
            }
        }
        img
    }

    /// Wraps an existing luminance buffer.
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Result<Self, ImageError> {
        if width.checked_mul(height) != Some(data.len()) {
            return Err(ImageError::Dimensions {
                width,
                height,
                buffer_len: Some(data.len()),
            });
        }
        Ok(GrayImage {
            width,
            height,
            data,
        })
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

    /// Total pixel count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the image contains no pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Luminance at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u8 {
        debug_assert!(row < self.height && col < self.width);
        self.data[row * self.width + col]
    }

    /// Read-only view of the raw luminance buffer.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Mean luminance. Returns 0 for an empty image.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.data.iter().map(|&v| v as u64).sum();
        sum as f64 / self.data.len() as f64
    }
}

impl std::fmt::Debug for GrayImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GrayImage({}x{}, mean={:.1})",
            self.width,
            self.height,
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_gradient() {
        let img = GrayImage::from_fn(4, 2, |r, c| (r * 4 + c) as u8 * 10);
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(1, 3), 70);
    }

    #[test]
    fn from_raw_checks_length() {
        assert!(GrayImage::from_raw(2, 2, vec![0; 3]).is_err());
        assert!(GrayImage::from_raw(2, 2, vec![0; 4]).is_ok());
    }

    #[test]
    fn mean_of_uniform() {
        let img = GrayImage::from_fn(10, 10, |_, _| 42);
        assert!((img.mean() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(GrayImage::zeros(0, 5).mean(), 0.0);
    }
}
