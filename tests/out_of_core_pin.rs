//! Pinned output of the out-of-core labeler: digests of the raw label
//! output and the ordered component records of two fixed runs.
//!
//! The equivalence suites compare the engine's modes with each other and
//! its labels with whole-image AREMSP up to renaming, so a change that
//! renumbers every mode's ids the same way, reorders the records or
//! moves an id merge passes them all. These digests catch exactly that:
//! they cover the emission-time ids of every tile, every merge pair, the
//! tile placements and the records in emission order, each field as
//! stored. A deliberate change to the numbering must update them.

use paremsp::datasets::synth::noise::bernoulli;
use paremsp::datasets::synth::shapes::text_page;
use paremsp::image::BinaryImage;
use paremsp::stream::{
    label_stream, label_tiles, ComponentId, ComponentRecord, GridSource, MemorySource, StreamError,
    StripConfig, TileMeta, TileSink,
};

/// FNV-1a over 64-bit words: stable across toolchains, unlike the
/// standard library's hashers.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn records(&mut self, records: &[ComponentRecord]) {
        for r in records {
            let (r0, c0, r1, c1) = r.bbox;
            for w in [r.id, r.area, r0 as u64, c0 as u64, r1 as u64, c1 as u64] {
                self.word(w);
            }
            self.word(r.centroid.0.to_bits());
            self.word(r.centroid.1.to_bits());
            for w in [r.anchor.0 as u64, r.anchor.1 as u64, r.perimeter, r.holes] {
                self.word(w);
            }
        }
    }
}

/// Digests every [`TileSink`] call in call order: merges tagged 1, tiles
/// tagged 2 with their placement and emission-time ids.
struct EventDigest {
    digest: Digest,
    merges: usize,
    tiles: usize,
}

impl TileSink for EventDigest {
    fn merge(&mut self, kept: ComponentId, absorbed: ComponentId) {
        self.merges += 1;
        for w in [1, kept, absorbed] {
            self.digest.word(w);
        }
    }

    fn tile(&mut self, meta: &TileMeta, gids: &[ComponentId]) -> Result<(), StreamError> {
        self.tiles += 1;
        self.digest.word(2);
        for w in [
            meta.tile_row,
            meta.tile_col,
            meta.row0,
            meta.col0,
            meta.width,
            meta.height,
        ] {
            self.digest.word(w as u64);
        }
        for &g in gids {
            self.digest.word(g);
        }
        Ok(())
    }
}

/// Sequential synchronous, and pipelined at 2 threads: the digests are
/// the same in both.
const MODES: [StripConfig; 2] = [
    StripConfig {
        threads: 1,
        pipelined: false,
    },
    StripConfig {
        threads: 2,
        pipelined: true,
    },
];

/// Digests of one run's label output and records, with the counts of
/// merges, tiles and records.
struct Pin {
    events: u64,
    records: u64,
    counts: (usize, usize, usize),
}

/// Runs `img` through `label_tiles` in `tw × th` tiles, or through
/// `label_stream` in bands of `th` rows when `tw` is `None`.
fn pin(img: &BinaryImage, tw: Option<usize>, th: usize, cfg: StripConfig) -> Pin {
    let mut events = EventDigest {
        digest: Digest::new(),
        merges: 0,
        tiles: 0,
    };
    let mut records: Vec<ComponentRecord> = Vec::new();
    match tw {
        Some(tw) => {
            let mut src = GridSource::from_image(img, tw, th);
            label_tiles(&mut src, cfg, &mut records, Some(&mut events)).unwrap()
        }
        None => {
            let mut src = MemorySource::new(img);
            label_stream(&mut src, th, cfg, &mut records, Some(&mut events)).unwrap()
        }
    };
    let mut digest = Digest::new();
    digest.records(&records);
    Pin {
        events: events.digest.0,
        records: digest.0,
        counts: (events.merges, events.tiles, records.len()),
    }
}

#[test]
fn tile_grid_label_output_and_records_are_pinned() {
    let img = text_page(97, 83, 1, 11);
    for cfg in MODES {
        let got = pin(&img, Some(7), 5, cfg);
        assert_eq!(got.counts, (25, 14 * 17, 180), "{cfg:?}");
        assert_eq!(got.events, 0xaab5_ef36_1e24_323f, "{cfg:?}: label output");
        assert_eq!(got.records, 0x7296_e0a8_222d_fecf, "{cfg:?}: records");
    }
}

#[test]
fn strip_label_output_and_records_are_pinned() {
    let img = bernoulli(101, 89, 0.25, 5);
    for cfg in MODES {
        let got = pin(&img, None, 6, cfg);
        assert_eq!(got.counts, (20, 15, 577), "{cfg:?}");
        assert_eq!(got.events, 0xcfb1_b5fa_51f2_bb9c, "{cfg:?}: label output");
        assert_eq!(got.records, 0x8ce5_aaaf_08fe_1cd9, "{cfg:?}: records");
    }
}
