//! Netpbm image I/O.
//!
//! The paper's datasets are ordinary raster images; this module provides a
//! dependency-free reader/writer for the Netpbm family so the examples and
//! the dataset suite can persist images:
//!
//! * PBM — binary images, ASCII (`P1`) and packed binary (`P4`),
//! * PGM — grayscale, ASCII (`P2`) and binary (`P5`),
//! * PPM — RGB, ASCII (`P3`) and binary (`P6`),
//! * [`stream`] — incremental PBM/PGM decoding in row bands, for the
//!   out-of-core pipeline (`ccl-stream`).
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

use crate::error::ImageError;

/// Reads the next Netpbm token (whitespace-delimited, `#` comments run to
/// end of line) starting at `*pos`. Returns the token as a byte slice.
pub(crate) fn next_token<'a>(data: &'a [u8], pos: &mut usize) -> Result<&'a [u8], ImageError> {
    // skip whitespace and comments
    loop {
        while *pos < data.len() && data[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
        if *pos < data.len() && data[*pos] == b'#' {
            while *pos < data.len() && data[*pos] != b'\n' {
                *pos += 1;
            }
        } else {
            break;
        }
    }
    if *pos >= data.len() {
        return Err(ImageError::Parse("unexpected end of stream".into()));
    }
    let start = *pos;
    while *pos < data.len() && !data[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
    Ok(&data[start..*pos])
}

/// Parses an unsigned decimal token.
pub(crate) fn next_usize(data: &[u8], pos: &mut usize) -> Result<usize, ImageError> {
    let tok = next_token(data, pos)?;
    let s = std::str::from_utf8(tok)
        .map_err(|_| ImageError::Parse("non-ascii numeric token".into()))?;
    s.parse()
        .map_err(|_| ImageError::Parse(format!("invalid number {s:?}")))
}

/// `width × height × channels` samples, or a parse error when the product
/// overflows `usize` (a hostile header must not wrap into a small buffer).
pub(crate) fn sample_count(
    width: usize,
    height: usize,
    channels: usize,
) -> Result<usize, ImageError> {
    width
        .checked_mul(height)
        .and_then(|n| n.checked_mul(channels))
        .ok_or_else(|| ImageError::Parse(format!("image dimensions {width}x{height} overflow")))
}

/// [`sample_count`] for an ASCII body starting at `pos`, rejected before
/// anything is allocated when the bytes left cannot hold it: every ASCII
/// sample takes at least one byte.
pub(crate) fn ascii_sample_count(
    data: &[u8],
    pos: usize,
    width: usize,
    height: usize,
    channels: usize,
) -> Result<usize, ImageError> {
    let n = sample_count(width, height, channels)?;
    let left = data.len().saturating_sub(pos);
    if n > left {
        return Err(ImageError::Parse(format!(
            "truncated ASCII sample data: {n} samples declared, {left} bytes left"
        )));
    }
    Ok(n)
}

/// Consumes exactly one whitespace byte after a header (the Netpbm spec
/// requires a single whitespace before binary sample data).
pub(crate) fn expect_single_whitespace(data: &[u8], pos: &mut usize) -> Result<(), ImageError> {
    if *pos < data.len() && data[*pos].is_ascii_whitespace() {
        *pos += 1;
        Ok(())
    } else {
        Err(ImageError::Parse(
            "expected whitespace before sample data".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_skips_comments_and_whitespace() {
        let data = b"  # comment line\n  P1 # trailing\n 12\t34\n";
        let mut pos = 0;
        assert_eq!(next_token(data, &mut pos).unwrap(), b"P1");
        assert_eq!(next_usize(data, &mut pos).unwrap(), 12);
        assert_eq!(next_usize(data, &mut pos).unwrap(), 34);
        assert!(next_token(data, &mut pos).is_err());
    }

    #[test]
    fn tokenizer_rejects_bad_number() {
        let mut pos = 0;
        assert!(next_usize(b"abc", &mut pos).is_err());
    }

    #[test]
    fn single_whitespace_requirement() {
        let mut pos = 0;
        assert!(expect_single_whitespace(b" x", &mut pos).is_ok());
        assert_eq!(pos, 1);
        let mut pos2 = 0;
        assert!(expect_single_whitespace(b"x", &mut pos2).is_err());
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
