//! Netpbm image I/O.
//!
//! The paper's datasets are ordinary raster images; this module provides a
//! dependency-free reader/writer for the Netpbm family so the examples and
//! the dataset suite can persist images:
//!
//! * PBM — binary images, ASCII (`P1`) and packed binary (`P4`),
//! * PGM — grayscale, ASCII (`P2`) and binary (`P5`, 8- or 16-bit),
//! * PPM — RGB, ASCII (`P3`) and binary (`P6`),
//! * [`stream`] — incremental PBM/PGM decoding in row bands, for the
//!   out-of-core pipeline (`ccl-stream`).
//!
//! One decoder reads all seven encodings: a tokenizer over any
//! [`std::io::Read`], one header parser, and per encoding one body
//! decoder that decodes the next band of rows. The [`stream`] band
//! readers call it band by band; the whole-buffer readers
//! ([`pbm::read`], [`pgm::read`], [`ppm::read`], [`pgm::read_binary16`])
//! are the same band decoder over a byte slice, asked for one band of
//! every row. Header values are untrusted: sample counts are checked for
//! overflow, and buffers start at no more than 1 MiB and grow only as
//! sample bytes arrive, so a header declaring a terabyte raster over a
//! short body is an [`ImageError::Parse`], not an allocation abort.
//!
//! PBM inverts polarity relative to this crate: in PBM, `1` is **black**.
//! We map PBM black ↔ foreground, which matches the usual "objects are
//! dark on paper, bright in `im2bw` output" convention used when images
//! round-trip through [`crate::threshold::im2bw`] (foreground = white = 1
//! in memory, stored as PBM black bits). The mapping is lossless either
//! way; see [`pbm`] for details.

pub mod pbm;
pub mod pgm;
pub mod ppm;
pub mod stream;

use std::io::Read;
use std::ops::RangeInclusive;

use crate::error::ImageError;

/// Upper bound, in bytes, on what a band decoder allocates or reads at a
/// time before the stream has delivered the bytes to fill it.
const CHUNK: usize = 1 << 20;

/// P4 byte → its 8 pixels, most significant bit first: byte `i` of
/// `UNPACK[b].to_le_bytes()` is bit `7 − i` of `b`.
const UNPACK: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            table[b] |= ((b as u64 >> (7 - i)) & 1) << (8 * i);
            i += 1;
        }
        b += 1;
    }
    table
};

/// `width × height × channels` samples, or a parse error when the product
/// overflows `usize` (a hostile header must not wrap into a small buffer).
fn sample_count(width: usize, height: usize, channels: usize) -> Result<usize, ImageError> {
    width
        .checked_mul(height)
        .and_then(|n| n.checked_mul(channels))
        .ok_or_else(|| ImageError::Parse(format!("image dimensions {width}x{height} overflow")))
}

/// The Netpbm tokenizer over a byte stream: whitespace-delimited tokens,
/// `#` comments running to end of line, single-byte pushback for the
/// header/body boundary.
struct ByteScanner<R: Read> {
    inner: R,
    peeked: Option<u8>,
    /// The last token, reused so ASCII bodies allocate nothing per sample.
    token: Vec<u8>,
}

impl<R: Read> ByteScanner<R> {
    fn new(inner: R) -> Self {
        ByteScanner {
            inner,
            peeked: None,
            token: Vec::new(),
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
    fn next_token(&mut self) -> Result<&[u8], ImageError> {
        let first = self
            .next_content_byte()?
            .ok_or_else(|| ImageError::Parse("unexpected end of stream".into()))?;
        self.token.clear();
        self.token.push(first);
        loop {
            match self.next_byte()? {
                None => break,
                Some(b) if b.is_ascii_whitespace() => {
                    self.push_back(b);
                    break;
                }
                Some(b) => self.token.push(b),
            }
        }
        Ok(&self.token)
    }

    /// Parses an unsigned decimal token.
    fn next_usize(&mut self) -> Result<usize, ImageError> {
        let tok = self.next_token()?;
        let s = std::str::from_utf8(tok)
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

    /// Appends `n` bytes from the stream to `buf`. Past the first [`CHUNK`]
    /// bytes, `buf` grows only as the stream delivers bytes.
    fn read_n(&mut self, buf: &mut Vec<u8>, n: usize) -> Result<(), ImageError> {
        let end = buf.len() + n;
        buf.reserve(n.min(CHUNK));
        if n > 0 {
            buf.extend(self.peeked.take());
        }
        (&mut self.inner)
            .take((end - buf.len()) as u64)
            .read_to_end(buf)?;
        if buf.len() < end {
            return Err(ImageError::Parse("truncated sample data".into()));
        }
        Ok(())
    }
}

/// The Netpbm formats, numbered like their ASCII magic (`P1`–`P3`); the
/// binary magic is three higher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Pbm = 1,
    Pgm = 2,
    Ppm = 3,
}

impl Format {
    fn name(self) -> &'static str {
        ["PBM", "PGM", "PPM"][self as usize - 1]
    }
}

/// A Netpbm stream past its header, decoding its body band by band.
struct Decoder<R: Read> {
    scanner: ByteScanner<R>,
    ascii: bool,
    width: usize,
    height: usize,
    /// 1 for PBM.
    maxval: usize,
    rows_read: usize,
}

impl<R: Read> Decoder<R> {
    /// The one header parser: the magic number of `format`, the width, the
    /// height and — except for PBM, whose maxval is 1 — a maxval within
    /// `1..=65535` for an ASCII body or within `binary_maxval` for a binary
    /// one. A binary body starts after exactly one whitespace byte.
    fn open(
        reader: R,
        format: Format,
        binary_maxval: RangeInclusive<usize>,
    ) -> Result<Self, ImageError> {
        let mut scanner = ByteScanner::new(reader);
        let digit = b'0' + format as u8;
        let ascii = match scanner.next_token()? {
            [b'P', d] if *d == digit => true,
            [b'P', d] if *d == digit + 3 => false,
            other => {
                return Err(ImageError::Parse(format!(
                    "not a {} stream (magic {:?})",
                    format.name(),
                    String::from_utf8_lossy(other)
                )))
            }
        };
        let width = scanner.next_usize()?;
        let height = scanner.next_usize()?;
        let maxval = match format {
            Format::Pbm => 1,
            _ => scanner.next_usize()?,
        };
        let allowed = if ascii { 1..=65535 } else { binary_maxval };
        if !allowed.contains(&maxval) {
            return Err(ImageError::Parse(format!(
                "{} {} requires maxval in {allowed:?}, got {maxval}",
                if ascii { "ASCII" } else { "binary" },
                format.name()
            )));
        }
        if !ascii {
            scanner.expect_single_whitespace()?;
        }
        Ok(Decoder {
            scanner,
            ascii,
            width,
            height,
            maxval,
            rows_read: 0,
        })
    }

    fn rows_remaining(&self) -> usize {
        self.height - self.rows_read
    }

    /// Rows in the next band of at most `max_rows`, or `None` once every
    /// row is decoded.
    ///
    /// # Panics
    /// Panics when `max_rows` is 0.
    fn next_rows(&self, max_rows: usize) -> Option<usize> {
        assert!(max_rows > 0, "band height must be positive");
        let rows = max_rows.min(self.rows_remaining());
        (rows > 0).then_some(rows)
    }

    /// Decodes the next `rows` rows of PBM pixels, 1 = black: `P1` digits
    /// or `P4` packed bits.
    fn bits(&mut self, rows: usize) -> Result<Vec<u8>, ImageError> {
        let samples = sample_count(self.width, rows, 1)?;
        let mut pixels = Vec::with_capacity(samples.min(CHUNK));
        if self.ascii {
            // P1 samples may be packed without whitespace: read digit by
            // digit, skipping whitespace and comments.
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
        } else if samples > 0 {
            // A row is ⌈width/8⌉ bytes, read in chunks of at most
            // `CHUNK` bytes (8 × `CHUNK` pixels). A zero-width band has
            // no bytes to read, however many rows it declares.
            // Each byte unpacks to 8 pixels through one `UNPACK` lookup;
            // a row's last, partial byte keeps only its leading pixels, so
            // padding bits never become pixels.
            let mut row_bytes = Vec::with_capacity(self.width.div_ceil(8).min(CHUNK));
            for _ in 0..rows {
                let mut left = self.width;
                while left > 0 {
                    let n = left.min(8 * CHUNK);
                    row_bytes.resize(n.div_ceil(8), 0);
                    self.scanner.read_exact(&mut row_bytes)?;
                    let start = pixels.len();
                    pixels.resize(start + n, 0);
                    let mut eights = pixels[start..].chunks_exact_mut(8);
                    for (eight, &b) in eights.by_ref().zip(&row_bytes) {
                        eight.copy_from_slice(&UNPACK[usize::from(b)].to_le_bytes());
                    }
                    let tail = eights.into_remainder();
                    if let Some(&b) = row_bytes.get(n / 8) {
                        tail.copy_from_slice(&UNPACK[usize::from(b)].to_le_bytes()[..tail.len()]);
                    }
                    left -= n;
                }
            }
        }
        self.rows_read += rows;
        Ok(pixels)
    }

    /// Decodes the next `rows` rows of `channels`-sample pixels rescaled to
    /// `0..=255`: `P2`/`P3` ASCII numbers or `P5`/`P6` bytes.
    fn samples(&mut self, rows: usize, channels: usize) -> Result<Vec<u8>, ImageError> {
        let n = sample_count(self.width, rows, channels)?;
        let maxval = self.maxval;
        let mut samples = Vec::with_capacity(n.min(CHUNK));
        if self.ascii {
            for _ in 0..n {
                let v = self.scanner.next_usize()?;
                if v > maxval {
                    return Err(ImageError::Parse(format!(
                        "sample {v} exceeds maxval {maxval}"
                    )));
                }
                samples.push(((v * 255 + maxval / 2) / maxval) as u8);
            }
        } else {
            self.scanner.read_n(&mut samples, n)?;
            if maxval != 255 {
                for v in &mut samples {
                    *v = ((*v as usize * 255 + maxval / 2) / maxval).min(255) as u8;
                }
            }
        }
        self.rows_read += rows;
        Ok(samples)
    }

    /// Decodes the next `rows` rows of 16-bit `P5` samples, two big-endian
    /// bytes each, as stored.
    fn words(&mut self, rows: usize) -> Result<Vec<u16>, ImageError> {
        let n = sample_count(self.width, rows, 1)?;
        let mut words = Vec::with_capacity(n.min(CHUNK / 2));
        let mut bytes = Vec::new();
        while words.len() < n {
            bytes.clear();
            self.scanner
                .read_n(&mut bytes, 2 * (n - words.len()).min(CHUNK / 2))?;
            words.extend(
                bytes
                    .chunks_exact(2)
                    .map(|b| u16::from_be_bytes([b[0], b[1]])),
            );
        }
        self.rows_read += rows;
        Ok(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_skips_comments_and_whitespace() {
        let data = b"  # comment line\n  P1 # trailing\n 12\t34\n";
        let mut scanner = ByteScanner::new(&data[..]);
        assert_eq!(scanner.next_token().unwrap(), b"P1");
        assert_eq!(scanner.next_usize().unwrap(), 12);
        assert_eq!(scanner.next_usize().unwrap(), 34);
        assert!(scanner.next_token().is_err());
    }

    #[test]
    fn tokenizer_rejects_bad_number() {
        assert!(ByteScanner::new(&b"abc"[..]).next_usize().is_err());
    }

    #[test]
    fn single_whitespace_requirement() {
        let mut scanner = ByteScanner::new(&b" x"[..]);
        assert!(scanner.expect_single_whitespace().is_ok());
        assert_eq!(scanner.next_byte().unwrap(), Some(b'x'));
        assert!(ByteScanner::new(&b"x"[..])
            .expect_single_whitespace()
            .is_err());
    }

    /// The pixels of a P4 body of `rows` rows `width` wide, bit by bit:
    /// pixel `c` of a row is bit `7 − c % 8` of the row's byte `c / 8`.
    fn unpack_bit_by_bit(body: &[u8], width: usize, rows: usize) -> Vec<u8> {
        let stride = width.div_ceil(8);
        (0..rows)
            .flat_map(|r| (0..width).map(move |c| (body[r * stride + c / 8] >> (7 - c % 8)) & 1))
            .collect()
    }

    /// Decodes the P4 stream of `body` with the whole-buffer reader and
    /// with `PbmBands` at several odd band heights, checks both against
    /// the bit-by-bit decoder, and checks that every truncation of the
    /// body is a parse error.
    fn check_p4(width: usize, rows: usize, body: &[u8]) {
        let ctx = format!("{width}x{rows}");
        let mut bytes = format!("P4\n{width} {rows}\n").into_bytes();
        bytes.extend_from_slice(body);
        let expected = unpack_bit_by_bit(body, width, rows);
        assert_eq!(
            pbm::read(&bytes).unwrap().as_slice(),
            &expected[..],
            "{ctx}"
        );
        for band in [1, 3, 5, 7] {
            let mut bands = stream::PbmBands::new(&bytes[..]).unwrap();
            let mut pixels = Vec::new();
            while let Some(b) = bands.next_band(band).unwrap() {
                pixels.extend_from_slice(b.as_slice());
            }
            assert_eq!(pixels, expected, "{ctx} in {band}-row bands");
        }
        let cut = bytes.len() - body.len();
        for short in [cut, cut + body.len() / 2, bytes.len() - 1] {
            let truncated = &bytes[..short];
            assert!(
                matches!(pbm::read(truncated), Err(ImageError::Parse(_))),
                "{ctx} cut to {short} bytes"
            );
            let mut bands = stream::PbmBands::new(truncated).unwrap();
            let err = loop {
                match bands.next_band(3) {
                    Ok(Some(_)) => continue,
                    Ok(None) => panic!("{ctx} cut to {short} bytes decoded in full"),
                    Err(e) => break e,
                }
            };
            assert!(matches!(err, ImageError::Parse(_)), "{ctx}: {err:?}");
        }
    }

    /// The table-driven P4 unpack equals a bit-by-bit decoder: every byte
    /// value, as a full byte and as a row's partial last byte; widths
    /// 1–70 (partial last bytes and the bytes after the last full one);
    /// padding bits all 0 or all 1, which must never become pixels.
    #[test]
    fn p4_unpack_matches_a_bit_by_bit_decoder() {
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // every byte value, one per row: full bytes at width 8, partial
        // last bytes (garbage padding included) at widths 1–7, 9 and 15
        let every: Vec<u8> = (0..=255).collect();
        check_p4(8, 256, &every);
        for width in [1, 2, 3, 4, 5, 6, 7] {
            check_p4(width, 256, &every);
        }
        let pairs: Vec<u8> = (0..=255u8).flat_map(|b| [b.reverse_bits(), b]).collect();
        check_p4(9, 256, &pairs);
        check_p4(15, 256, &pairs);
        for width in 1..=70usize {
            let stride = width.div_ceil(8);
            let pad = 8 * stride - width;
            for padding in [0u8, 0xff] {
                let rows = 1 + (next() % 6) as usize;
                let mut body: Vec<u8> = (0..stride * rows).map(|_| next() as u8).collect();
                for row in body.chunks_mut(stride) {
                    let last = &mut row[stride - 1];
                    let mask = ((1u16 << pad) - 1) as u8;
                    *last = (*last & !mask) | (padding & mask);
                }
                check_p4(width, rows, &body);
            }
        }
    }

    /// Headers declaring far more samples than the buffer holds, or
    /// dimensions whose product wraps, are parse errors — not a 40 GB
    /// allocation abort and not an index panic.
    #[test]
    fn hostile_headers_are_parse_errors() {
        let parse_err = |r: Result<(), ImageError>| matches!(r, Err(ImageError::Parse(_)));
        assert!(parse_err(pbm::read(b"P1 200000 200000\n0").map(drop)));
        assert!(parse_err(pgm::read(b"P2 200000 200000 255\n0").map(drop)));
        assert!(parse_err(ppm::read(b"P3 200000 200000 255\n0").map(drop)));
        assert!(parse_err(
            pbm::read(b"P4 8796093022208 16777216\n").map(drop)
        ));
    }
}
