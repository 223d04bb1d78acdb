//! PBM (portable bitmap) read/write, formats `P1` (ASCII) and `P4`
//! (packed binary).
//!
//! PBM stores `1` for black. In-memory foreground (1) maps to PBM black
//! (1), so a foreground-heavy image produces a black-heavy bitmap; the
//! mapping round-trips exactly.

use crate::bitmap::BinaryImage;
use crate::error::ImageError;

use super::{Decoder, Format};

/// Serializes to ASCII PBM (`P1`). Rows are emitted one per line.
pub fn write_ascii(img: &BinaryImage) -> Vec<u8> {
    let mut out = Vec::with_capacity(img.len() * 2 + 32);
    out.extend_from_slice(format!("P1\n{} {}\n", img.width(), img.height()).as_bytes());
    for r in 0..img.height() {
        for c in 0..img.width() {
            if c > 0 {
                out.push(b' ');
            }
            out.push(b'0' + img.get(r, c));
        }
        out.push(b'\n');
    }
    out
}

/// Serializes to packed binary PBM (`P4`): each row padded to whole bytes,
/// most significant bit first.
pub fn write_binary(img: &BinaryImage) -> Vec<u8> {
    let bytes_per_row = img.width().div_ceil(8);
    let mut out = Vec::with_capacity(bytes_per_row * img.height() + 32);
    out.extend_from_slice(format!("P4\n{} {}\n", img.width(), img.height()).as_bytes());
    for r in 0..img.height() {
        let row = img.row(r);
        for chunk in row.chunks(8) {
            let mut byte = 0u8;
            for (i, &v) in chunk.iter().enumerate() {
                byte |= v << (7 - i);
            }
            out.push(byte);
        }
    }
    out
}

/// Parses either PBM format, dispatching on the magic number: the band
/// decoder of [`super::stream::PbmBands`] over `data`, asked for one band
/// of every row.
pub fn read(data: &[u8]) -> Result<BinaryImage, ImageError> {
    let mut pbm = Decoder::open(data, Format::Pbm, 1..=1)?;
    let pixels = pbm.bits(pbm.height)?;
    BinaryImage::from_raw(pbm.width, pbm.height, pixels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BinaryImage {
        BinaryImage::parse(
            "#..#.####
             .##......
             #########
             .........
             #.#.#.#.#",
        )
    }

    #[test]
    fn ascii_round_trip() {
        let img = sample();
        let bytes = write_ascii(&img);
        assert_eq!(read(&bytes).unwrap(), img);
    }

    #[test]
    fn binary_round_trip() {
        let img = sample();
        let bytes = write_binary(&img);
        assert_eq!(read(&bytes).unwrap(), img);
    }

    #[test]
    fn binary_round_trip_at_byte_boundaries() {
        for width in [7, 8, 9, 15, 16, 17] {
            let img = BinaryImage::from_fn(width, 4, |r, c| (r + c) % 3 == 0);
            assert_eq!(read(&write_binary(&img)).unwrap(), img, "width {width}");
        }
    }

    #[test]
    fn ascii_parses_packed_samples_and_comments() {
        let data = b"P1\n# a comment\n3 2\n101\n# mid comment\n010\n";
        let img = read(data).unwrap();
        assert_eq!(img.as_slice(), &[1, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn rejects_wrong_magic() {
        assert!(read(b"P5\n1 1\n255\n\x00").is_err());
        assert!(read(b"hello").is_err());
    }

    #[test]
    fn rejects_truncated_binary() {
        let img = sample();
        let mut bytes = write_binary(&img);
        bytes.truncate(bytes.len() - 1);
        assert!(read(&bytes).is_err());
    }

    #[test]
    fn rejects_invalid_ascii_sample() {
        assert!(read(b"P1\n2 1\n1 2\n").is_err());
    }

    #[test]
    fn empty_image_round_trip() {
        let img = BinaryImage::zeros(0, 0);
        assert_eq!(read(&write_ascii(&img)).unwrap(), img);
    }
}
