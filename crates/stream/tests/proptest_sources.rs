//! Fuzzing the streaming Netpbm sources over a reader that delivers
//! 1..=k bytes per call and reports `ErrorKind::Interrupted` between
//! reads, as pipes and sockets may. [`PbmSource`] and [`PgmSource`]
//! drained a random number of rows at a time must behave exactly as they
//! do over a plain byte slice, which always fills a request: valid files
//! give the same bands, truncated or byte-mutated files the same bands
//! up to the same `Ok`/`Err` outcome, and nothing panics.

use std::io::{self, Read};

use proptest::prelude::*;

use ccl_image::io::{pbm, pgm};
use ccl_image::{BinaryImage, GrayImage};
use ccl_stream::{PbmSource, PgmSource, RowSource, StreamError};

/// A `Read` over a byte slice that returns at most `max_chunk` bytes per
/// call (how many is drawn from a seeded generator) and, when `interrupt`
/// is set, fails a seeded share of calls with `Interrupted` first.
struct ShortReads<'a> {
    data: &'a [u8],
    max_chunk: usize,
    interrupt: bool,
    state: u64,
}

impl<'a> ShortReads<'a> {
    fn new(data: &'a [u8], max_chunk: usize, interrupt: bool, seed: u64) -> Self {
        ShortReads {
            data,
            max_chunk: max_chunk.max(1),
            interrupt,
            state: seed | 1,
        }
    }

    fn next_random(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 33
    }
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.interrupt && self.next_random().is_multiple_of(3) {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "interrupted"));
        }
        let n = (1 + self.next_random() as usize % self.max_chunk)
            .min(buf.len())
            .min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// What draining a source yields: the bands delivered, then the end of
/// the stream (`Ok`) or the error message that stopped it.
type Drained = (Vec<BinaryImage>, Result<(), String>);

/// Pulls `band` rows at a time until the stream ends or fails.
fn drain<S: RowSource>(source: Result<S, StreamError>, band: usize) -> Drained {
    let mut bands = Vec::new();
    let mut source = match source {
        Ok(s) => s,
        Err(e) => return (bands, Err(e.to_string())),
    };
    loop {
        match source.next_band(band) {
            Ok(Some(b)) => {
                assert_eq!(b.width(), source.width());
                bands.push(b);
            }
            Ok(None) => return (bands, Ok(())),
            Err(e) => return (bands, Err(e.to_string())),
        }
    }
}

/// Drains both sources over `bytes` through the plain slice reader and
/// through short readers with and without interrupts, and asserts they
/// agree band for band and on the outcome. Returns how many of the two
/// sources read the file to its end.
fn assert_short_reads_agree(bytes: &[u8], band: usize, chunk: usize, seed: u64) -> usize {
    let short = |interrupt| ShortReads::new(bytes, chunk, interrupt, seed);
    let pbm = drain(PbmSource::new(bytes), band);
    let pgm = drain(PgmSource::new(bytes, 0.5), band);
    for interrupt in [false, true] {
        let fuzzed = drain(PbmSource::new(short(interrupt)), band);
        assert_eq!(fuzzed, pbm, "PbmSource, interrupt {interrupt}");
        let fuzzed = drain(PgmSource::new(short(interrupt), 0.5), band);
        assert_eq!(fuzzed, pgm, "PgmSource, interrupt {interrupt}");
    }
    usize::from(pbm.1.is_ok()) + usize::from(pgm.1.is_ok())
}

/// A valid `w × h` file with samples drawn from `seed`, in encoding
/// `which`: `P1`, `P4`, `P2` or `P5`.
fn valid_file(which: usize, w: usize, h: usize, seed: &[u8]) -> Vec<u8> {
    let px = |r: usize, c: usize| seed[(r * w + c) % seed.len()];
    match which {
        0 => pbm::write_ascii(&BinaryImage::from_fn(w, h, |r, c| px(r, c) & 1 == 1)),
        1 => pbm::write_binary(&BinaryImage::from_fn(w, h, |r, c| px(r, c) & 1 == 1)),
        2 => pgm::write_ascii(&GrayImage::from_fn(w, h, px)),
        _ => pgm::write_binary(&GrayImage::from_fn(w, h, px)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A valid file reads the same over short, interrupted reads as over
    /// the slice, and exactly one of the two sources accepts it.
    #[test]
    fn valid_files_give_the_same_bands(
        which in 0usize..4,
        w in 0usize..=24,
        h in 0usize..=24,
        seed in proptest::collection::vec(proptest::num::u8::ANY, 1..64),
        band in 1usize..=26,
        chunk in 1usize..=9,
        rng in proptest::num::u64::ANY,
    ) {
        let bytes = valid_file(which, w, h, &seed);
        prop_assert_eq!(assert_short_reads_agree(&bytes, band, chunk, rng), 1);
    }

    /// A truncated or byte-mutated file gives the same bands and the
    /// same `Ok`/`Err` outcome over short, interrupted reads as over the
    /// slice.
    #[test]
    fn damaged_files_give_the_same_outcome(
        which in 0usize..4,
        w in 1usize..=16,
        h in 1usize..=16,
        seed in proptest::collection::vec(proptest::num::u8::ANY, 1..64),
        cut in 0usize..1 << 16,
        truncate in proptest::bool::ANY,
        mutations in proptest::collection::vec((0usize..1 << 16, proptest::num::u8::ANY), 0..4),
        band in 1usize..=18,
        chunk in 1usize..=9,
        rng in proptest::num::u64::ANY,
    ) {
        let mut bytes = valid_file(which, w, h, &seed);
        for (at, byte) in mutations {
            let i = at % bytes.len();
            bytes[i] = byte;
        }
        if truncate {
            bytes.truncate(cut % bytes.len());
        }
        assert_short_reads_agree(&bytes, band, chunk, rng);
    }
}

#[test]
fn short_reader_delivers_every_byte_in_small_pieces() {
    let data: Vec<u8> = (0..=255).collect();
    let mut reader = ShortReads::new(&data, 3, true, 7);
    let (mut out, mut calls, mut interrupted) = (Vec::new(), 0, 0);
    loop {
        let mut buf = [0u8; 16];
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                assert!((1..=3).contains(&n));
                out.extend_from_slice(&buf[..n]);
                calls += 1;
            }
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::Interrupted);
                interrupted += 1;
            }
        }
    }
    assert_eq!(out, data);
    assert!(calls >= data.len() / 3 && interrupted > 0);
}
