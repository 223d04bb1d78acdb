//! 24-bit RGB raster and the MATLAB-compatible grayscale conversion.
//!
//! The paper converts color inputs with MATLAB's `im2bw`, which first runs
//! `rgb2gray`. MATLAB's `rgb2gray` uses the Rec.601 luma weights
//! `0.2989 R + 0.5870 G + 0.1140 B`; [`RgbImage::to_gray`] reproduces that
//! formula (with round-half-up, matching MATLAB's `round`).

use crate::error::ImageError;
use crate::gray::GrayImage;

/// An interleaved 8-bit-per-channel RGB image, row-major.
#[derive(Clone, PartialEq, Eq)]
pub struct RgbImage {
    width: usize,
    height: usize,
    /// Interleaved `[r, g, b, r, g, b, …]`, length `3 * width * height`.
    data: Vec<u8>,
}

impl RgbImage {
    /// Creates an all-black image.
    pub fn zeros(width: usize, height: usize) -> Self {
        let pixels = width
            .checked_mul(height)
            .and_then(|p| p.checked_mul(3))
            .expect("image dimensions overflow");
        RgbImage {
            width,
            height,
            data: vec![0u8; pixels],
        }
    }

    /// Builds an image by evaluating `f(row, col) -> [r, g, b]`.
    pub fn from_fn(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> [u8; 3],
    ) -> Self {
        let mut img = Self::zeros(width, height);
        for r in 0..height {
            for c in 0..width {
                let px = f(r, c);
                let base = (r * width + c) * 3;
                img.data[base..base + 3].copy_from_slice(&px);
            }
        }
        img
    }

    /// Wraps an interleaved RGB buffer (`3 * width * height` bytes).
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Result<Self, ImageError> {
        if width.checked_mul(height).and_then(|p| p.checked_mul(3)) != Some(data.len()) {
            return Err(ImageError::Dimensions {
                width,
                height,
                buffer_len: Some(data.len()),
            });
        }
        Ok(RgbImage {
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

    /// The `[r, g, b]` triple at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> [u8; 3] {
        debug_assert!(row < self.height && col < self.width);
        let base = (row * self.width + col) * 3;
        [self.data[base], self.data[base + 1], self.data[base + 2]]
    }

    /// Read-only view of the interleaved buffer.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Rec.601 luma conversion, matching MATLAB's `rgb2gray`:
    /// `Y = round(0.2989 R + 0.5870 G + 0.1140 B)`.
    ///
    /// Implemented in 32-bit fixed point (×2^20) so the result is exact for
    /// all inputs and independent of floating-point rounding mode.
    pub fn to_gray(&self) -> GrayImage {
        // Weights scaled by 2^20; the +0.5 rounding term is HALF.
        const SHIFT: u32 = 20;
        const WR: u32 = (0.2989 * (1u32 << SHIFT) as f64) as u32;
        const WG: u32 = (0.5870 * (1u32 << SHIFT) as f64) as u32;
        const WB: u32 = (0.1140 * (1u32 << SHIFT) as f64) as u32;
        const HALF: u32 = 1 << (SHIFT - 1);
        let mut out = Vec::with_capacity(self.width * self.height);
        for px in self.data.chunks_exact(3) {
            let y = (WR * px[0] as u32 + WG * px[1] as u32 + WB * px[2] as u32 + HALF) >> SHIFT;
            out.push(y.min(255) as u8);
        }
        GrayImage::from_raw(self.width, self.height, out)
            .expect("dimensions preserved by conversion")
    }
}

impl std::fmt::Debug for RgbImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RgbImage({}x{})", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_gray_pure_channels() {
        let img = RgbImage::from_fn(3, 1, |_, c| match c {
            0 => [255, 0, 0],
            1 => [0, 255, 0],
            _ => [0, 0, 255],
        });
        let g = img.to_gray();
        // MATLAB: round(255 * 0.2989) = 76, round(255 * 0.587) = 150,
        // round(255 * 0.114) = 29.
        assert_eq!(g.get(0, 0), 76);
        assert_eq!(g.get(0, 1), 150);
        assert_eq!(g.get(0, 2), 29);
    }

    #[test]
    fn to_gray_white_and_black() {
        let img = RgbImage::from_fn(2, 1, |_, c| if c == 0 { [255; 3] } else { [0; 3] });
        let g = img.to_gray();
        assert_eq!(g.get(0, 0), 255);
        assert_eq!(g.get(0, 1), 0);
    }

    #[test]
    fn to_gray_gray_input_is_identity() {
        // For r = g = b = v the weights sum to ~1.0 so output equals v.
        let img = RgbImage::from_fn(256, 1, |_, c| [c as u8; 3]);
        let g = img.to_gray();
        for c in 0..256 {
            assert_eq!(g.get(0, c), c as u8, "value {c}");
        }
    }

    #[test]
    fn from_raw_length_check() {
        assert!(RgbImage::from_raw(2, 2, vec![0; 11]).is_err());
        assert!(RgbImage::from_raw(2, 2, vec![0; 12]).is_ok());
    }
}
