//! PGM (portable graymap) read/write, formats `P2` (ASCII) and `P5`
//! (binary), maxval ≤ 255 — plus the 16-bit `P5` form (maxval 65535,
//! two big-endian bytes per sample) used by the `ccl-tiles` label spill
//! writer as a portable alternative to raw `u32` tiles.

use crate::error::ImageError;
use crate::gray::GrayImage;

use super::{Decoder, Format};

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
    let mut pgm = Decoder::open(data, Format::Pgm, 256..=65535)?;
    if pgm.ascii {
        return Err(ImageError::Parse(
            "16-bit PGM requires the binary P5 encoding".into(),
        ));
    }
    let samples = pgm.words(pgm.height)?;
    Ok((pgm.width, pgm.height, samples))
}

/// Parses either PGM format, dispatching on the magic number: the band
/// decoder of [`super::stream::PgmBands`] over `data`, asked for one band
/// of every row.
///
/// Maxvals other than 255 are accepted for ASCII input and rescaled to the
/// 0–255 range; binary input requires maxval ≤ 255 (one byte per sample).
pub fn read(data: &[u8]) -> Result<GrayImage, ImageError> {
    let mut pgm = Decoder::open(data, Format::Pgm, 1..=255)?;
    let pixels = pgm.samples(pgm.height, 1)?;
    GrayImage::from_raw(pgm.width, pgm.height, pixels)
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
