//! Grayscale → binary conversion.
//!
//! The paper prepares every dataset with MATLAB's `im2bw(image, 0.5)`:
//! pixels with luminance *greater than* `level` become foreground (white,
//! 1), all others background (black, 0). [`im2bw`] reproduces exactly that
//! comparison.

use crate::bitmap::BinaryImage;
use crate::gray::GrayImage;

/// MATLAB-compatible fixed-level threshold.
///
/// `level` is a luminance fraction in `[0, 1]`; a pixel is foreground iff
/// `pixel / 255 > level`, i.e. `pixel > level * 255`. MATLAB clamps levels
/// outside `[0, 1]`; we do the same.
pub fn im2bw(img: &GrayImage, level: f64) -> BinaryImage {
    let level = level.clamp(0.0, 1.0);
    // A pixel passes iff pixel > level * 255. For both exact and
    // fractional cuts this reduces to v > floor(level * 255): when the
    // cut is fractional, v > floor(cut) equals v > cut for integer v.
    let cut = (level * 255.0).floor() as u16;
    let data = img
        .as_slice()
        .iter()
        .map(|&v| u8::from(v as u16 > cut))
        .collect();
    BinaryImage::from_raw(img.width(), img.height(), data)
        .expect("dimensions preserved by thresholding")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn im2bw_level_half_matches_matlab() {
        // level 0.5 => threshold strictly greater than 127.5, i.e. >= 128.
        let img = GrayImage::from_fn(4, 1, |_, c| [127, 128, 0, 255][c]);
        let bw = im2bw(&img, 0.5);
        assert_eq!(bw.as_slice(), &[0, 1, 0, 1]);
    }

    #[test]
    fn im2bw_is_strictly_greater() {
        // For an exact integer cut (level 0.2 * 255 = 51), pixel 51 must be
        // background because MATLAB uses a strict comparison.
        let img = GrayImage::from_fn(3, 1, |_, c| [50, 51, 52][c]);
        let bw = im2bw(&img, 51.0 / 255.0);
        assert_eq!(bw.as_slice(), &[0, 0, 1]);
    }

    #[test]
    fn im2bw_level_extremes() {
        let img = GrayImage::from_fn(2, 1, |_, c| [0, 255][c]);
        // level 0: everything except luminance 0 is foreground.
        assert_eq!(im2bw(&img, 0.0).as_slice(), &[0, 1]);
        // level 1: nothing can be strictly greater than 255.
        assert_eq!(im2bw(&img, 1.0).as_slice(), &[0, 0]);
        // out-of-range levels are clamped.
        assert_eq!(im2bw(&img, -3.0).as_slice(), im2bw(&img, 0.0).as_slice());
        assert_eq!(im2bw(&img, 7.0).as_slice(), im2bw(&img, 1.0).as_slice());
    }
}
