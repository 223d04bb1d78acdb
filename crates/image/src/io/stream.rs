//! Incremental Netpbm decoding — row bands pulled from a byte stream.
//!
//! For the out-of-core pipeline (`ccl-stream`) a gigapixel raster must be
//! decoded a *band* of rows at a time. [`PbmBands`] and [`PgmBands`] parse
//! the header eagerly from any [`std::io::Read`] and then hand out row
//! bands on demand, holding only one band (plus a tiny token buffer)
//! resident. Both are thin faces of the one Netpbm decoder in [`super`];
//! the whole-buffer readers ([`super::pbm::read`], [`super::pgm::read`])
//! are the same band decoder over a byte slice, asked for one band of
//! every row.
//!
//! Formats: PBM `P1`/`P4` and PGM `P2`/`P5` (binary PGM limited to
//! `maxval ≤ 255`, like [`super::pgm::read`]).
//!
//! Header values are untrusted: a band's buffers start at no more than
//! 1 MiB and grow only as sample bytes arrive, so a header declaring a
//! terabyte-wide or -tall raster over a short body returns
//! [`ImageError::Parse`] instead of aborting on allocation.

use std::io::Read;

use super::{Decoder, Format};
use crate::bitmap::BinaryImage;
use crate::error::ImageError;
use crate::gray::GrayImage;

/// Incremental PBM (`P1`/`P4`) decoder: header parsed up front, rows
/// delivered in bands of caller-chosen height.
///
/// ```
/// use ccl_image::io::pbm;
/// use ccl_image::io::stream::PbmBands;
/// use ccl_image::BinaryImage;
///
/// let img = BinaryImage::parse("#.# .#. #.#");
/// let bytes = pbm::write_binary(&img);
/// let mut bands = PbmBands::new(bytes.as_slice()).unwrap();
/// assert_eq!((bands.width(), bands.height()), (3, 3));
/// let top = bands.next_band(2).unwrap().unwrap();
/// assert_eq!(top.height(), 2);
/// assert_eq!(top.row(0), img.row(0));
/// ```
pub struct PbmBands<R: Read>(Decoder<R>);

impl<R: Read> PbmBands<R> {
    /// Parses the PBM header (magic + dimensions) from `reader`.
    pub fn new(reader: R) -> Result<Self, ImageError> {
        Decoder::open(reader, Format::Pbm, 1..=1).map(PbmBands)
    }

    /// Image width (columns).
    pub fn width(&self) -> usize {
        self.0.width
    }

    /// Total image height declared by the header.
    pub fn height(&self) -> usize {
        self.0.height
    }

    /// Rows not yet delivered.
    pub fn rows_remaining(&self) -> usize {
        self.0.rows_remaining()
    }

    /// Decodes the next band of at most `max_rows` rows; `Ok(None)` once
    /// the image is exhausted.
    ///
    /// # Panics
    /// Panics when `max_rows` is 0.
    pub fn next_band(&mut self, max_rows: usize) -> Result<Option<BinaryImage>, ImageError> {
        let Some(rows) = self.0.next_rows(max_rows) else {
            return Ok(None);
        };
        BinaryImage::from_raw(self.0.width, rows, self.0.bits(rows)?).map(Some)
    }
}

/// Incremental PGM (`P2`/`P5`) decoder: header parsed up front, grayscale
/// rows delivered in bands. Samples are rescaled to `0..=255` exactly like
/// [`super::pgm::read`]; binary streams require `maxval ≤ 255`.
pub struct PgmBands<R: Read>(Decoder<R>);

impl<R: Read> PgmBands<R> {
    /// Parses the PGM header (magic, dimensions, maxval) from `reader`.
    pub fn new(reader: R) -> Result<Self, ImageError> {
        Decoder::open(reader, Format::Pgm, 1..=255).map(PgmBands)
    }

    /// Image width (columns).
    pub fn width(&self) -> usize {
        self.0.width
    }

    /// Total image height declared by the header.
    pub fn height(&self) -> usize {
        self.0.height
    }

    /// Rows not yet delivered.
    pub fn rows_remaining(&self) -> usize {
        self.0.rows_remaining()
    }

    /// Decodes the next band of at most `max_rows` rows; `Ok(None)` once
    /// the image is exhausted.
    ///
    /// # Panics
    /// Panics when `max_rows` is 0.
    pub fn next_band(&mut self, max_rows: usize) -> Result<Option<GrayImage>, ImageError> {
        let Some(rows) = self.0.next_rows(max_rows) else {
            return Ok(None);
        };
        GrayImage::from_raw(self.0.width, rows, self.0.samples(rows, 1)?).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{pbm, pgm};

    fn sample_binary() -> BinaryImage {
        BinaryImage::parse(
            "#..#.####
             .##......
             #########
             .........
             #.#.#.#.#",
        )
    }

    fn sample_gray() -> GrayImage {
        GrayImage::from_fn(7, 5, |r, c| (r * 40 + c * 11) as u8)
    }

    fn collect_pbm(data: &[u8], band: usize) -> BinaryImage {
        let mut bands = PbmBands::new(data).unwrap();
        let (w, h) = (bands.width(), bands.height());
        let mut out = BinaryImage::zeros(w, h);
        let mut r0 = 0;
        while let Some(b) = bands.next_band(band).unwrap() {
            for r in 0..b.height() {
                for c in 0..w {
                    out.set(r0 + r, c, b.get(r, c) == 1);
                }
            }
            r0 += b.height();
        }
        assert_eq!(r0, h);
        assert_eq!(bands.rows_remaining(), 0);
        out
    }

    #[test]
    fn pbm_band_decoding_matches_one_shot_reader() {
        let img = sample_binary();
        for bytes in [pbm::write_ascii(&img), pbm::write_binary(&img)] {
            for band in [1, 2, 3, 5, 100] {
                assert_eq!(collect_pbm(&bytes, band), img, "band height {band}");
            }
        }
    }

    #[test]
    fn pbm_binary_band_boundaries_at_odd_widths() {
        for width in [7, 8, 9, 17] {
            let img = BinaryImage::from_fn(width, 6, |r, c| (r * 3 + c) % 4 == 0);
            let bytes = pbm::write_binary(&img);
            assert_eq!(collect_pbm(&bytes, 1), img, "width {width}");
        }
    }

    #[test]
    fn pgm_band_decoding_matches_one_shot_reader() {
        let img = sample_gray();
        for bytes in [pgm::write_ascii(&img), pgm::write_binary(&img)] {
            let expected = pgm::read(&bytes).unwrap();
            let mut bands = PgmBands::new(bytes.as_slice()).unwrap();
            let mut rows: Vec<u8> = Vec::new();
            while let Some(b) = bands.next_band(2).unwrap() {
                rows.extend_from_slice(b.as_slice());
            }
            assert_eq!(rows, expected.as_slice());
        }
    }

    #[test]
    fn header_metadata_is_exposed() {
        let img = sample_gray();
        let bytes = pgm::write_binary(&img);
        let bands = PgmBands::new(bytes.as_slice()).unwrap();
        assert_eq!((bands.width(), bands.height()), (7, 5));
        assert_eq!(bands.rows_remaining(), 5);
    }

    #[test]
    fn exhausted_stream_yields_none() {
        let img = sample_binary();
        let bytes = pbm::write_binary(&img);
        let mut bands = PbmBands::new(bytes.as_slice()).unwrap();
        while bands.next_band(2).unwrap().is_some() {}
        assert!(bands.next_band(2).unwrap().is_none());
    }

    #[test]
    fn rejects_wrong_magic_and_truncation() {
        assert!(PbmBands::new(&b"P5\n1 1\n255\n\x00"[..]).is_err());
        assert!(PgmBands::new(&b"P4\n1 1\n\x00"[..]).is_err());
        let img = sample_binary();
        let mut bytes = pbm::write_binary(&img);
        bytes.truncate(bytes.len() - 1);
        let mut bands = PbmBands::new(bytes.as_slice()).unwrap();
        let mut result = Ok(None);
        for _ in 0..5 {
            result = bands.next_band(1);
            if result.is_err() {
                break;
            }
        }
        assert!(result.is_err(), "truncated stream must error");
    }

    #[test]
    fn comments_in_header_are_skipped() {
        let data = b"P1\n# c1\n3 # c2\n2\n101\n010\n";
        let mut bands = PbmBands::new(&data[..]).unwrap();
        assert_eq!((bands.width(), bands.height()), (3, 2));
        let all = bands.next_band(10).unwrap().unwrap();
        assert_eq!(all.as_slice(), &[1, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn huge_headers_over_short_bodies_are_parse_errors() {
        let parse_err = |r: Result<bool, ImageError>| matches!(r, Err(ImageError::Parse(_)));
        let pbm_band = |data: &[u8], rows: usize| {
            PbmBands::new(data).and_then(|mut b| b.next_band(rows).map(|b| b.is_some()))
        };
        let pgm_band = |data: &[u8], rows: usize| {
            PgmBands::new(data).and_then(|mut b| b.next_band(rows).map(|b| b.is_some()))
        };
        // huge width: one band's pixels (or one P4 row's bytes) would not
        // fit in memory
        assert!(parse_err(pbm_band(b"P4 1099511627776 4096\n", 256)));
        assert!(parse_err(pbm_band(b"P1 1099511627776 4096\n0 1 1", 256)));
        assert!(parse_err(pgm_band(b"P5 1099511627776 4096 255\n\x07", 256)));
        assert!(parse_err(pgm_band(b"P2 1099511627776 4096 255\n7 8", 256)));
        // huge height: narrow rows, but a caller asking for every row
        assert!(parse_err(pbm_band(
            b"P4 16 1099511627776\n\xff\x00",
            usize::MAX
        )));
        assert!(parse_err(pbm_band(b"P1 16 1099511627776\n0 1", usize::MAX)));
        assert!(parse_err(pgm_band(
            b"P5 16 1099511627776 255\n\x01",
            usize::MAX
        )));
        assert!(parse_err(pgm_band(
            b"P2 16 1099511627776 255\n1 2",
            usize::MAX
        )));
        // width × rows overflowing usize
        assert!(parse_err(pbm_band(
            b"P4 8796093022208 16777216\n",
            usize::MAX
        )));
    }

    #[test]
    fn pgm_nonstandard_maxval_rescales() {
        let data = b"P2\n2 1\n4\n0 4\n";
        let mut bands = PgmBands::new(&data[..]).unwrap();
        let row = bands.next_band(1).unwrap().unwrap();
        assert_eq!(row.as_slice(), &[0, 255]);
    }
}
