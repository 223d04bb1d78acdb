//! Fuzzing the Netpbm decoders: whatever bytes arrive — arbitrary bytes,
//! a byte-mutated valid file of any of the seven encodings, or a valid
//! header with a huge dimension — every reader returns an image or an
//! `ImageError::Parse`. None panics, aborts on an allocation or hangs,
//! and each whole-buffer reader agrees with its band reader drained a
//! random number of rows at a time.

use proptest::prelude::*;

use ccl_image::io::stream::{PbmBands, PgmBands};
use ccl_image::io::{pbm, pgm, ppm};
use ccl_image::{BinaryImage, GrayImage, ImageError, RgbImage};

/// Width, height and row-major samples of a decoded raster.
type Raster = (usize, usize, Vec<u8>);

/// Drains a [`PbmBands`] or [`PgmBands`] `band` rows at a time.
macro_rules! drain {
    ($bands:expr, $band:expr) => {
        $bands.and_then(|mut bands| {
            let (width, height) = (bands.width(), bands.height());
            // A zero-width raster has no samples; draining 10^12 empty
            // rows a few at a time would only time the loop.
            let band = if width == 0 { usize::MAX } else { $band };
            let (mut rows, mut samples) = (0, Vec::new());
            while let Some(b) = bands.next_band(band)? {
                assert_eq!(b.width(), width);
                rows += b.height();
                samples.extend_from_slice(b.as_slice());
            }
            assert_eq!(rows, height);
            Ok((width, height, samples))
        })
    };
}

/// A whole-buffer result and its drained band reader agree: both fail,
/// or both succeed with the same raster. Failures are parse errors.
fn assert_agree(whole: Result<Raster, ImageError>, banded: Result<Raster, ImageError>) {
    match (&whole, &banded) {
        (Ok(a), Ok(b)) => assert_eq!(a, b),
        (Err(ImageError::Parse(_)), Err(ImageError::Parse(_))) => {}
        _ => panic!(
            "whole-buffer {:?} vs banded {:?}",
            whole.map(|r| (r.0, r.1)),
            banded.map(|r| (r.0, r.1))
        ),
    }
}

/// Runs every public decoder over `bytes`, the band readers draining
/// `band` rows at a time. Returns how many whole-buffer readers accepted
/// the bytes.
fn decode_all(bytes: &[u8], band: usize) -> usize {
    let raster = |w, h, s: &[u8]| (w, h, s.to_vec());
    let pbm = pbm::read(bytes).map(|i| raster(i.width(), i.height(), i.as_slice()));
    let pgm = pgm::read(bytes).map(|i| raster(i.width(), i.height(), i.as_slice()));
    let accepted = usize::from(pbm.is_ok()) + usize::from(pgm.is_ok());
    assert_agree(pbm, drain!(PbmBands::new(bytes), band));
    assert_agree(pgm, drain!(PgmBands::new(bytes), band));
    let ppm = ppm::read(bytes);
    let words = pgm::read_binary16(bytes);
    for result in [ppm.as_ref().map(drop), words.as_ref().map(drop)] {
        assert!(matches!(result, Ok(()) | Err(ImageError::Parse(_))));
    }
    if let Ok((w, h, samples)) = &words {
        assert_eq!(samples.len(), w * h);
    }
    accepted + usize::from(ppm.is_ok()) + usize::from(words.is_ok())
}

/// A valid `w × h` file with samples drawn from `seed`, in encoding
/// `which`: `P1`, `P4`, `P2`, `P5`, `P3`, `P6` or 16-bit `P5`.
fn valid_file(which: usize, w: usize, h: usize, seed: &[u8]) -> Vec<u8> {
    let px = |i: usize| seed[i % seed.len()];
    let bits = BinaryImage::from_fn(w, h, |r, c| px(r * w + c) & 1 == 1);
    let gray = GrayImage::from_fn(w, h, |r, c| px(r * w + c));
    let rgb = RgbImage::from_fn(w, h, |r, c| {
        let i = 3 * (r * w + c);
        [px(i), px(i + 1), px(i + 2)]
    });
    match which {
        0 => pbm::write_ascii(&bits),
        1 => pbm::write_binary(&bits),
        2 => pgm::write_ascii(&gray),
        3 => pgm::write_binary(&gray),
        4 => ppm::write_ascii(&rgb),
        5 => ppm::write_binary(&rgb),
        _ => {
            let words: Vec<u16> = (0..w * h).map(|i| u16::from(px(i)) * 257).collect();
            pgm::write_binary16(w, h, &words)
        }
    }
}

/// Applies one edit to `bytes` at `pos`: replace, insert or delete a
/// byte, insert a digit, or insert a separator (space, newline or the
/// comment mark `#`).
fn edit(bytes: &mut Vec<u8>, pos: usize, byte: u8, op: u8) {
    let pos = pos % (bytes.len() + 1);
    match op {
        0 if pos < bytes.len() => bytes[pos] = byte,
        1 => bytes.insert(pos, byte),
        2 if pos < bytes.len() => {
            bytes.remove(pos);
        }
        3 => bytes.insert(pos, b'0' + byte % 10),
        4 => bytes.insert(pos, b" \n#"[byte as usize % 3]),
        _ => {}
    }
}

/// Numbers a hostile header puts where a dimension belongs.
const HUGE: [&str; 6] = [
    "4294967296",
    "1099511627776",
    "8796093022208",
    "1000000000000000",
    "18446744073709551615",
    "18446744073709551616",
];

/// Band heights the drained readers ask for; `usize::MAX` drains in one.
fn band_height() -> impl Strategy<Value = usize> {
    (1usize..=4, proptest::bool::ANY).prop_map(|(rows, all)| if all { usize::MAX } else { rows })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_never_panic(
        magic in 0usize..7,
        bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
        band in band_height(),
    ) {
        // a magic number gets the header parser past its first token
        let mut data = [&b"P1 "[..], b"P2 ", b"P3 ", b"P4 ", b"P5 ", b"P6 ", b""][magic].to_vec();
        data.extend_from_slice(&bytes);
        decode_all(&data, band);
    }

    #[test]
    fn mutated_files_never_panic(
        which in 0usize..7,
        (w, h) in (0usize..=6, 0usize..=5),
        seed in proptest::collection::vec(proptest::num::u8::ANY, 1..16),
        edits in proptest::collection::vec((0usize..1 << 16, proptest::num::u8::ANY, 0u8..5), 0..6),
        band in band_height(),
    ) {
        let mut data = valid_file(which, w, h, &seed);
        if edits.is_empty() {
            prop_assert_eq!(decode_all(&data, band), 1, "exactly one reader accepts a valid file");
        }
        for &(pos, byte, op) in &edits {
            edit(&mut data, pos, byte, op);
        }
        decode_all(&data, band);
    }

    #[test]
    fn huge_dimensions_never_abort(
        which in 0usize..7,
        (w, h) in (0usize..=6, 0usize..=5),
        height in proptest::bool::ANY,
        huge in 0usize..HUGE.len(),
        band in band_height(),
    ) {
        let data = valid_file(which, w, h, &[0x5a, 0xc3, 0x01]);
        // the writers emit `P?\n<width> <height>\n…`
        let line = data.iter().position(|&b| b == b'\n').unwrap() + 1;
        let space = line + data[line..].iter().position(|&b| b == b' ').unwrap();
        let end = space + data[space..].iter().position(|&b| b == b'\n').unwrap();
        let (from, to) = if height { (space + 1, end) } else { (line, space) };
        let mut hostile = data[..from].to_vec();
        hostile.extend_from_slice(HUGE[huge].as_bytes());
        hostile.extend_from_slice(&data[to..]);
        decode_all(&hostile, band);
    }
}

/// Fuzz finding: the `P4` body decoder looped once per row even when the
/// rows are zero bytes wide, so `P4 0 <2^40>` hung [`PbmBands`] (and,
/// through it, `pbm::read`).
#[test]
fn zero_width_huge_height_rasters_decode_without_looping_over_rows() {
    for data in [&b"P4 0 1099511627776\n"[..], b"P1 0 1099511627776\n"] {
        let img = pbm::read(data).unwrap();
        assert_eq!((img.width(), img.height()), (0, 1 << 40));
        let band = PbmBands::new(data).unwrap().next_band(usize::MAX).unwrap();
        assert_eq!(band.unwrap().height(), 1 << 40);
    }
}
