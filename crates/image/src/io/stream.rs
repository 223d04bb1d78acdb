//! Incremental Netpbm decoding — row bands pulled from a byte stream.
//!
//! The whole-buffer readers in [`super::pbm`] / [`super::pgm`] require the
//! entire file in memory; for the out-of-core pipeline (`ccl-stream`) a
//! gigapixel raster must instead be decoded a *band* of rows at a time.
//! [`PbmBands`] and [`PgmBands`] parse the header eagerly from any
//! [`std::io::Read`] and then hand out row bands on demand, holding only
//! one band (plus a tiny token buffer) resident.
//!
//! Formats: PBM `P1`/`P4` and PGM `P2`/`P5` (binary PGM limited to
//! `maxval ≤ 255`, like [`super::pgm::read`]). Sample semantics match the
//! whole-buffer readers exactly — the round-trip tests below parse writer
//! output band-wise and compare with the one-shot readers.
//!
//! Header values are untrusted: a band's buffers start at no more than
//! 1 MiB and grow only as sample bytes arrive, so a header declaring a
//! terabyte-wide or -tall raster over a short body returns
//! [`ImageError::Parse`] instead of aborting on allocation.

use std::io::Read;

use crate::bitmap::BinaryImage;
use crate::error::ImageError;
use crate::gray::GrayImage;

/// Upper bound, in bytes, on what a band decoder allocates or reads at a
/// time before the stream has delivered the bytes to fill it.
const CHUNK: usize = 1 << 20;

/// Incremental token scanner over a byte stream: whitespace-delimited
/// tokens, `#` comments running to end of line, single-byte pushback for
/// the header/body boundary.
struct ByteScanner<R: Read> {
    inner: R,
    peeked: Option<u8>,
}

impl<R: Read> ByteScanner<R> {
    fn new(inner: R) -> Self {
        ByteScanner {
            inner,
            peeked: None,
        }
    }

    /// Next raw byte, or `None` at end of stream.
    fn next_byte(&mut self) -> Result<Option<u8>, ImageError> {
        if let Some(b) = self.peeked.take() {
            return Ok(Some(b));
        }
        let mut buf = [0u8; 1];
        loop {
            match self.inner.read(&mut buf) {
                Ok(0) => return Ok(None),
                Ok(_) => return Ok(Some(buf[0])),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ImageError::Io(e)),
            }
        }
    }

    fn push_back(&mut self, b: u8) {
        debug_assert!(self.peeked.is_none(), "single-byte pushback only");
        self.peeked = Some(b);
    }

    /// Skips whitespace and `#` comments; returns the first content byte.
    fn next_content_byte(&mut self) -> Result<Option<u8>, ImageError> {
        loop {
            match self.next_byte()? {
                None => return Ok(None),
                Some(b) if b.is_ascii_whitespace() => continue,
                Some(b'#') => {
                    // comment runs to end of line
                    loop {
                        match self.next_byte()? {
                            None | Some(b'\n') => break,
                            Some(_) => continue,
                        }
                    }
                }
                Some(b) => return Ok(Some(b)),
            }
        }
    }

    /// Reads the next whitespace-delimited token.
    fn next_token(&mut self) -> Result<Vec<u8>, ImageError> {
        let first = self
            .next_content_byte()?
            .ok_or_else(|| ImageError::Parse("unexpected end of stream".into()))?;
        let mut tok = vec![first];
        loop {
            match self.next_byte()? {
                None => break,
                Some(b) if b.is_ascii_whitespace() => {
                    self.push_back(b);
                    break;
                }
                Some(b) => tok.push(b),
            }
        }
        Ok(tok)
    }

    /// Parses an unsigned decimal token.
    fn next_usize(&mut self) -> Result<usize, ImageError> {
        let tok = self.next_token()?;
        let s = std::str::from_utf8(&tok)
            .map_err(|_| ImageError::Parse("non-ascii numeric token".into()))?;
        s.parse()
            .map_err(|_| ImageError::Parse(format!("invalid number {s:?}")))
    }

    /// Consumes the single whitespace byte separating a header from
    /// binary sample data.
    fn expect_single_whitespace(&mut self) -> Result<(), ImageError> {
        match self.next_byte()? {
            Some(b) if b.is_ascii_whitespace() => Ok(()),
            _ => Err(ImageError::Parse(
                "expected whitespace before sample data".into(),
            )),
        }
    }

    /// Fills `buf` exactly from the stream.
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), ImageError> {
        let mut filled = 0;
        if let Some(b) = self.peeked.take() {
            if !buf.is_empty() {
                buf[0] = b;
                filled = 1;
            }
        }
        self.inner
            .read_exact(&mut buf[filled..])
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => {
                    ImageError::Parse("truncated sample data".into())
                }
                _ => ImageError::Io(e),
            })
    }
}

/// Which PBM body encoding a [`PbmBands`] stream carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PbmKind {
    Ascii,
    Binary,
}

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
pub struct PbmBands<R: Read> {
    scanner: ByteScanner<R>,
    width: usize,
    height: usize,
    rows_read: usize,
    kind: PbmKind,
}

impl<R: Read> PbmBands<R> {
    /// Parses the PBM header (magic + dimensions) from `reader`.
    pub fn new(reader: R) -> Result<Self, ImageError> {
        let mut scanner = ByteScanner::new(reader);
        let magic = scanner.next_token()?;
        let kind = match magic.as_slice() {
            b"P1" => PbmKind::Ascii,
            b"P4" => PbmKind::Binary,
            other => {
                return Err(ImageError::Parse(format!(
                    "not a PBM stream (magic {:?})",
                    String::from_utf8_lossy(other)
                )))
            }
        };
        let width = scanner.next_usize()?;
        let height = scanner.next_usize()?;
        if kind == PbmKind::Binary {
            scanner.expect_single_whitespace()?;
        }
        Ok(PbmBands {
            scanner,
            width,
            height,
            rows_read: 0,
            kind,
        })
    }

    /// Image width (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total image height declared by the header.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Rows not yet delivered.
    pub fn rows_remaining(&self) -> usize {
        self.height - self.rows_read
    }

    /// Decodes the next band of at most `max_rows` rows; `Ok(None)` once
    /// the image is exhausted.
    ///
    /// # Panics
    /// Panics when `max_rows` is 0.
    pub fn next_band(&mut self, max_rows: usize) -> Result<Option<BinaryImage>, ImageError> {
        assert!(max_rows > 0, "band height must be positive");
        let rows = max_rows.min(self.rows_remaining());
        if rows == 0 {
            return Ok(None);
        }
        let samples = super::sample_count(self.width, rows, 1)?;
        let mut pixels = Vec::with_capacity(samples.min(CHUNK));
        match self.kind {
            PbmKind::Ascii => {
                for _ in 0..samples {
                    let b = self
                        .scanner
                        .next_content_byte()?
                        .ok_or_else(|| ImageError::Parse("truncated P1 sample data".into()))?;
                    pixels.push(match b {
                        b'0' => 0,
                        b'1' => 1,
                        other => {
                            return Err(ImageError::Parse(format!(
                                "invalid P1 sample byte {other:#x}"
                            )))
                        }
                    });
                }
            }
            PbmKind::Binary => {
                // A row is ⌈width/8⌉ bytes, read in chunks of at most
                // `CHUNK` bytes (8 × `CHUNK` pixels).
                let mut row_bytes = Vec::with_capacity(self.width.div_ceil(8).min(CHUNK));
                for _ in 0..rows {
                    let mut left = self.width;
                    while left > 0 {
                        let n = left.min(8 * CHUNK);
                        row_bytes.resize(n.div_ceil(8), 0);
                        self.scanner.read_exact(&mut row_bytes)?;
                        pixels.extend((0..n).map(|c| (row_bytes[c >> 3] >> (7 - (c & 7))) & 1));
                        left -= n;
                    }
                }
            }
        }
        self.rows_read += rows;
        BinaryImage::from_raw(self.width, rows, pixels).map(Some)
    }
}

/// Which PGM body encoding a [`PgmBands`] stream carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PgmKind {
    Ascii,
    Binary,
}

/// Incremental PGM (`P2`/`P5`) decoder: header parsed up front, grayscale
/// rows delivered in bands. Samples are rescaled to `0..=255` exactly like
/// [`super::pgm::read`]; binary streams require `maxval ≤ 255`.
pub struct PgmBands<R: Read> {
    scanner: ByteScanner<R>,
    width: usize,
    height: usize,
    maxval: usize,
    rows_read: usize,
    kind: PgmKind,
}

impl<R: Read> PgmBands<R> {
    /// Parses the PGM header (magic, dimensions, maxval) from `reader`.
    pub fn new(reader: R) -> Result<Self, ImageError> {
        let mut scanner = ByteScanner::new(reader);
        let magic = scanner.next_token()?;
        let kind = match magic.as_slice() {
            b"P2" => PgmKind::Ascii,
            b"P5" => PgmKind::Binary,
            other => {
                return Err(ImageError::Parse(format!(
                    "not a PGM stream (magic {:?})",
                    String::from_utf8_lossy(other)
                )))
            }
        };
        let width = scanner.next_usize()?;
        let height = scanner.next_usize()?;
        let maxval = scanner.next_usize()?;
        match kind {
            PgmKind::Ascii if maxval == 0 || maxval > 65535 => {
                return Err(ImageError::Parse(format!("invalid maxval {maxval}")));
            }
            PgmKind::Binary if maxval == 0 || maxval > 255 => {
                return Err(ImageError::Parse(format!(
                    "binary PGM requires maxval in 1..=255, got {maxval}"
                )));
            }
            _ => {}
        }
        if kind == PgmKind::Binary {
            scanner.expect_single_whitespace()?;
        }
        Ok(PgmBands {
            scanner,
            width,
            height,
            maxval,
            rows_read: 0,
            kind,
        })
    }

    /// Image width (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total image height declared by the header.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The stream's declared maximum sample value.
    pub fn maxval(&self) -> usize {
        self.maxval
    }

    /// Rows not yet delivered.
    pub fn rows_remaining(&self) -> usize {
        self.height - self.rows_read
    }

    /// Decodes the next band of at most `max_rows` rows; `Ok(None)` once
    /// the image is exhausted.
    ///
    /// # Panics
    /// Panics when `max_rows` is 0.
    pub fn next_band(&mut self, max_rows: usize) -> Result<Option<GrayImage>, ImageError> {
        assert!(max_rows > 0, "band height must be positive");
        let rows = max_rows.min(self.rows_remaining());
        if rows == 0 {
            return Ok(None);
        }
        let samples = super::sample_count(self.width, rows, 1)?;
        let mut pixels = Vec::with_capacity(samples.min(CHUNK));
        match self.kind {
            PgmKind::Ascii => {
                for _ in 0..samples {
                    let v = self.scanner.next_usize()?;
                    if v > self.maxval {
                        return Err(ImageError::Parse(format!(
                            "sample {v} exceeds maxval {}",
                            self.maxval
                        )));
                    }
                    pixels.push(((v * 255 + self.maxval / 2) / self.maxval) as u8);
                }
            }
            PgmKind::Binary => {
                while pixels.len() < samples {
                    let start = pixels.len();
                    pixels.resize(start + (samples - start).min(CHUNK), 0);
                    self.scanner.read_exact(&mut pixels[start..])?;
                }
                if self.maxval != 255 {
                    for v in pixels.iter_mut() {
                        *v = ((*v as usize * 255 + self.maxval / 2) / self.maxval).min(255) as u8;
                    }
                }
            }
        }
        self.rows_read += rows;
        GrayImage::from_raw(self.width, rows, pixels).map(Some)
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
        assert_eq!(bands.maxval(), 255);
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
