//! PGM (portable graymap) read/write, formats `P2` (ASCII) and `P5`
//! (binary), maxval ≤ 255 — plus the 16-bit `P5` form (maxval 65535,
//! two big-endian bytes per sample) used by the `ccl-tiles` label spill
//! writer as a portable alternative to raw `u32` tiles.

use crate::error::ImageError;
use crate::gray::GrayImage;

use super::{ascii_sample_count, expect_single_whitespace, next_token, next_usize, sample_count};

/// Serializes to ASCII PGM (`P2`) with maxval 255.
pub fn write_ascii(img: &GrayImage) -> Vec<u8> {
    let mut out = Vec::with_capacity(img.len() * 4 + 32);
    out.extend_from_slice(format!("P2\n{} {}\n255\n", img.width(), img.height()).as_bytes());
    for r in 0..img.height() {
        let mut line = String::new();
        for c in 0..img.width() {
            if c > 0 {
                line.push(' ');
            }
            line.push_str(&img.get(r, c).to_string());
        }
        line.push('\n');
        out.extend_from_slice(line.as_bytes());
    }
    out
}

/// Serializes to binary PGM (`P5`) with maxval 255.
pub fn write_binary(img: &GrayImage) -> Vec<u8> {
    let mut out = Vec::with_capacity(img.len() + 32);
    out.extend_from_slice(format!("P5\n{} {}\n255\n", img.width(), img.height()).as_bytes());
    out.extend_from_slice(img.as_slice());
    out
}

/// Serializes 16-bit samples to binary PGM (`P5`) with maxval 65535.
/// Per the Netpbm specification, each sample is two bytes, most
/// significant first. The sample buffer is row-major, `width * height`
/// entries.
///
/// # Panics
/// Panics when the buffer length does not equal `width * height`.
pub fn write_binary16(width: usize, height: usize, samples: &[u16]) -> Vec<u8> {
    assert_eq!(
        samples.len(),
        width.checked_mul(height).expect("dimensions overflow"),
        "sample buffer size mismatch"
    );
    let mut out = Vec::with_capacity(samples.len() * 2 + 32);
    out.extend_from_slice(binary16_header(width, height).as_bytes());
    for &s in samples {
        out.extend_from_slice(&s.to_be_bytes());
    }
    out
}

/// The header [`write_binary16`] puts before the samples.
pub fn binary16_header(width: usize, height: usize) -> String {
    format!("P5\n{width} {height}\n65535\n")
}

/// Parses a 16-bit binary PGM (`P5`, maxval in `256..=65535`) into its
/// dimensions and row-major samples. Samples are returned as stored —
/// *not* rescaled to the maxval — because the consumer here (`ccl-tiles`)
/// stores discrete labels, not luminance.
pub fn read_binary16(data: &[u8]) -> Result<(usize, usize, Vec<u16>), ImageError> {
    let mut pos = 0usize;
    let magic = next_token(data, &mut pos)?;
    if magic != b"P5" {
        return Err(ImageError::Parse(format!(
            "not a binary PGM stream (magic {:?})",
            String::from_utf8_lossy(magic)
        )));
    }
    let width = next_usize(data, &mut pos)?;
    let height = next_usize(data, &mut pos)?;
    let maxval = next_usize(data, &mut pos)?;
    if !(256..=65535).contains(&maxval) {
        return Err(ImageError::Parse(format!(
            "16-bit PGM requires maxval in 256..=65535, got {maxval}"
        )));
    }
    expect_single_whitespace(data, &mut pos)?;
    let need = sample_count(width, height, 2)?;
    if data.len() - pos < need {
        return Err(ImageError::Parse("truncated 16-bit P5 sample data".into()));
    }
    let samples: Vec<u16> = data[pos..pos + need]
        .chunks_exact(2)
        .map(|b| u16::from_be_bytes([b[0], b[1]]))
        .collect();
    Ok((width, height, samples))
}

/// Parses either PGM format, dispatching on the magic number.
///
/// Maxvals other than 255 are accepted for ASCII input and rescaled to the
/// 0–255 range; binary input requires maxval ≤ 255 (one byte per sample).
pub fn read(data: &[u8]) -> Result<GrayImage, ImageError> {
    let mut pos = 0usize;
    let magic = next_token(data, &mut pos)?;
    match magic {
        b"P2" => read_ascii_body(data, &mut pos),
        b"P5" => read_binary_body(data, &mut pos),
        other => Err(ImageError::Parse(format!(
            "not a PGM stream (magic {:?})",
            String::from_utf8_lossy(other)
        ))),
    }
}

fn read_ascii_body(data: &[u8], pos: &mut usize) -> Result<GrayImage, ImageError> {
    let width = next_usize(data, pos)?;
    let height = next_usize(data, pos)?;
    let maxval = next_usize(data, pos)?;
    if maxval == 0 || maxval > 65535 {
        return Err(ImageError::Parse(format!("invalid maxval {maxval}")));
    }
    let n = ascii_sample_count(data, *pos, width, height, 1)?;
    let mut pixels = Vec::with_capacity(n);
    for _ in 0..n {
        let v = next_usize(data, pos)?;
        if v > maxval {
            return Err(ImageError::Parse(format!(
                "sample {v} exceeds maxval {maxval}"
            )));
        }
        pixels.push(((v * 255 + maxval / 2) / maxval) as u8);
    }
    GrayImage::from_raw(width, height, pixels)
}

fn read_binary_body(data: &[u8], pos: &mut usize) -> Result<GrayImage, ImageError> {
    let width = next_usize(data, pos)?;
    let height = next_usize(data, pos)?;
    let maxval = next_usize(data, pos)?;
    if maxval == 0 || maxval > 255 {
        return Err(ImageError::Parse(format!(
            "binary PGM requires maxval in 1..=255, got {maxval}"
        )));
    }
    expect_single_whitespace(data, pos)?;
    let need = sample_count(width, height, 1)?;
    if data.len() - *pos < need {
        return Err(ImageError::Parse("truncated P5 sample data".into()));
    }
    let mut pixels = data[*pos..*pos + need].to_vec();
    if maxval != 255 {
        for v in &mut pixels {
            *v = ((*v as usize * 255 + maxval / 2) / maxval).min(255) as u8;
        }
    }
    *pos += need;
    GrayImage::from_raw(width, height, pixels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GrayImage {
        GrayImage::from_fn(5, 4, |r, c| (r * 50 + c * 13) as u8)
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
    fn ascii_rescales_small_maxval() {
        let data = b"P2\n2 1\n15\n0 15\n";
        let img = read(data).unwrap();
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(0, 1), 255);
    }

    #[test]
    fn binary_rescales_small_maxval() {
        let data = b"P5\n2 1\n100\n\x00\x64";
        let img = read(data).unwrap();
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(0, 1), 255);
    }

    #[test]
    fn rejects_sample_above_maxval() {
        assert!(read(b"P2\n1 1\n10\n11\n").is_err());
    }

    #[test]
    fn rejects_wrong_magic_and_bad_maxval() {
        assert!(read(b"P1\n1 1\n0\n").is_err());
        assert!(read(b"P2\n1 1\n0\n0\n").is_err());
        assert!(read(b"P5\n1 1\n999\n\x00").is_err());
    }

    #[test]
    fn rejects_truncated_binary() {
        assert!(read(b"P5\n3 3\n255\n\x01\x02").is_err());
    }

    #[test]
    fn binary16_round_trip() {
        let samples: Vec<u16> = vec![0, 1, 255, 256, 40_000, u16::MAX];
        let bytes = write_binary16(3, 2, &samples);
        let (w, h, back) = read_binary16(&bytes).unwrap();
        assert_eq!((w, h), (3, 2));
        assert_eq!(back, samples);
    }

    #[test]
    fn binary16_samples_are_big_endian() {
        let bytes = write_binary16(1, 1, &[0x1234]);
        assert_eq!(&bytes[bytes.len() - 2..], &[0x12, 0x34]);
    }

    #[test]
    fn binary16_rejects_eight_bit_maxval_and_truncation() {
        assert!(read_binary16(b"P5\n1 1\n255\n\x00\x00").is_err());
        assert!(read_binary16(b"P5\n2 1\n65535\n\x00\x00\x01").is_err());
        assert!(read_binary16(b"P2\n1 1\n65535\n0\n").is_err());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn binary16_rejects_short_buffer() {
        write_binary16(2, 2, &[0, 1, 2]);
    }
}
