//! PPM (portable pixmap) read/write, formats `P3` (ASCII) and `P6`
//! (binary), maxval 255.
//!
//! Also provides [`write_label_colormap`], which renders a `u32` label
//! raster as a pseudo-colored PPM — the standard way to visualise CCL
//! output (used by the `pipeline_netpbm` example).

use crate::error::ImageError;
use crate::rgb::RgbImage;

use super::{Decoder, Format};

/// Serializes to ASCII PPM (`P3`) with maxval 255.
pub fn write_ascii(img: &RgbImage) -> Vec<u8> {
    let mut out = Vec::with_capacity(img.as_slice().len() * 4 + 32);
    out.extend_from_slice(format!("P3\n{} {}\n255\n", img.width(), img.height()).as_bytes());
    for r in 0..img.height() {
        let mut line = String::new();
        for c in 0..img.width() {
            let [red, green, blue] = img.get(r, c);
            if c > 0 {
                line.push(' ');
            }
            line.push_str(&format!("{red} {green} {blue}"));
        }
        line.push('\n');
        out.extend_from_slice(line.as_bytes());
    }
    out
}

/// Serializes to binary PPM (`P6`) with maxval 255.
pub fn write_binary(img: &RgbImage) -> Vec<u8> {
    let mut out = Vec::with_capacity(img.as_slice().len() + 32);
    out.extend_from_slice(format!("P6\n{} {}\n255\n", img.width(), img.height()).as_bytes());
    out.extend_from_slice(img.as_slice());
    out
}

/// Parses either PPM format, dispatching on the magic number: the PGM
/// band decoder with three samples per pixel, asked for one band of every
/// row. Maxvals are handled as in [`super::pgm::read`].
pub fn read(data: &[u8]) -> Result<RgbImage, ImageError> {
    let mut ppm = Decoder::open(data, Format::Ppm, 1..=255)?;
    let samples = ppm.samples(ppm.height, 3)?;
    RgbImage::from_raw(ppm.width, ppm.height, samples)
}

/// Deterministic label → color mapping (golden-ratio hue stepping, label 0
/// rendered black). Useful for visualising CCL results.
pub fn label_color(label: u32) -> [u8; 3] {
    if label == 0 {
        return [0, 0, 0];
    }
    // Spread hues with the golden-ratio conjugate so nearby labels get
    // visually distant colors.
    let hue = (label as f64 * 0.618_033_988_749_895) % 1.0;
    hsv_to_rgb(hue, 0.85, 0.95)
}

fn hsv_to_rgb(h: f64, s: f64, v: f64) -> [u8; 3] {
    let i = (h * 6.0).floor();
    let f = h * 6.0 - i;
    let p = v * (1.0 - s);
    let q = v * (1.0 - f * s);
    let t = v * (1.0 - (1.0 - f) * s);
    let (r, g, b) = match i as i64 % 6 {
        0 => (v, t, p),
        1 => (q, v, p),
        2 => (p, v, t),
        3 => (p, q, v),
        4 => (t, p, v),
        _ => (v, p, q),
    };
    [
        (r * 255.0).round() as u8,
        (g * 255.0).round() as u8,
        (b * 255.0).round() as u8,
    ]
}

/// Renders a row-major label raster as a pseudo-colored binary PPM.
///
/// # Panics
/// Panics when `labels.len() != width * height`.
pub fn write_label_colormap(labels: &[u32], width: usize, height: usize) -> Vec<u8> {
    assert_eq!(labels.len(), width * height, "label buffer size mismatch");
    let img = RgbImage::from_fn(width, height, |r, c| label_color(labels[r * width + c]));
    write_binary(&img)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RgbImage {
        RgbImage::from_fn(3, 2, |r, c| [(r * 90) as u8, (c * 80) as u8, 200])
    }

    #[test]
    fn ascii_round_trip() {
        let img = sample();
        assert_eq!(read(&write_ascii(&img)).unwrap(), img);
    }

    #[test]
    fn binary_round_trip() {
        let img = sample();
        assert_eq!(read(&write_binary(&img)).unwrap(), img);
    }

    #[test]
    fn rejects_wrong_magic() {
        assert!(read(b"P2\n1 1\n255\n0\n").is_err());
    }

    #[test]
    fn label_colors_are_distinct_and_background_black() {
        assert_eq!(label_color(0), [0, 0, 0]);
        let a = label_color(1);
        let b = label_color(2);
        let c = label_color(3);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
        // determinism
        assert_eq!(label_color(7), label_color(7));
    }

    #[test]
    fn label_colormap_has_correct_size() {
        let labels = vec![0u32, 1, 2, 1];
        let ppm = write_label_colormap(&labels, 2, 2);
        let img = read(&ppm).unwrap();
        assert_eq!((img.width(), img.height()), (2, 2));
        assert_eq!(img.get(0, 0), [0, 0, 0]);
        assert_eq!(img.get(0, 1), img.get(1, 1)); // same label, same color
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn label_colormap_checks_size() {
        write_label_colormap(&[0, 1], 2, 2);
    }
}
