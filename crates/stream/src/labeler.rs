//! [`StripLabeler`] — the bounded-memory out-of-core two-pass engine.
//!
//! PAREMSP's structure (disjoint provisional-label ranges per chunk,
//! boundaries merged afterwards) is exactly what out-of-core labeling
//! needs: treat every arriving unit of rows as a chunk, merge its first
//! row against the *carried* last row of the previous unit, and throw
//! the unit away. A unit is either a **strip band** ([`push_band`]) or a
//! **tile row** ([`push_tile_row`]): both are one band of pixel rows cut
//! into column tiles — a tile row into its `tile_width`-wide tiles, a
//! strip band into one column tile per worker, Chen et al.'s block
//! decomposition with a block per thread. The only state that crosses
//! units is
//!
//! * one boundary row of labels (the **carry row**),
//! * one [`Accum`](crate::analysis) per component still *open* on that
//!   row (area, bbox, centroid sums, anchor, perimeter, id),
//!
//! so the resident footprint is O(unit + open components), independent
//! of image height. Label slots are recycled: after each unit, the
//! provisional label space is compacted to `1..=k` active ids (components
//! with a pixel on the carry row) and everything else is retired — closed
//! components are emitted through [`ComponentSink`] and their slots
//! reused.
//!
//! The per-unit work splits into two stages with one dependency between
//! consecutive units:
//!
//! * **scan stage** — the unit's column tiles, each a span of the band
//!   scanned in place with the two-line scan + RemSP, by at most
//!   [`StripConfig::threads`] workers, each into a label space of its own
//!   that the stage then stitches into one numbering and merges along
//!   the vertical seams ([`crate::scan`]). Carried ids are reserved by
//!   capacity (the exact open-component count synchronously, the width
//!   bound `⌈w/2⌉` in the pipelined driver loop), so the stage never
//!   looks at the carry row. Each scan worker also builds its tiles'
//!   **partial accumulator tables** while it scans (see
//!   [`crate::analysis`] for the invariants).
//! * **merge stage** — the carry seam, the per-label fold, compaction and
//!   component emission ([`crate::carry`]), then the unit's labels
//!   through a [`TileSink`]: a strip band as one full-width tile, a tile
//!   row as its tiles. Inherently sequential, because each unit's carry
//!   feeds the next. The carry state also counts the rows and units,
//!   degenerate ones included.
//!
//! Every thread count produces identical output — the carry merge only
//! ever sees set-minimum roots, which every path agrees on, numbers new
//! components in raster order of their anchors, and the fold is exact
//! (commutative, associative, integer-valued f64 sums), so the column
//! split cannot show in records, labels or stats.
//!
//! [`push_band`]: StripLabeler::push_band
//! [`push_tile_row`]: StripLabeler::push_tile_row

use ccl_core::scan::split_spans;
use ccl_image::BinaryImage;

use crate::analysis::{ComponentSink, TileMeta, TileSink};
use crate::carry::CarryState;
use crate::error::StreamError;
use crate::scan::{scan_tile_row, ScannedRow};
use crate::source::TileRow;

/// Configuration of the out-of-core labeler and its drivers (re-exported
/// by `ccl-tiles` as `TileGridConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripConfig {
    /// Worker threads for the scan and the seam merges within one band
    /// or tile row (1 = sequential AREMSP). A parallel strip band is cut
    /// into this many column tiles.
    pub threads: usize,
    /// Whether the driver loop ([`crate::pipeline`], run by
    /// [`label_stream`](crate::label_stream) and
    /// [`label_tiles`](crate::label_tiles)) pipelines: unit *k + 1*'s
    /// scan overlaps unit *k*'s merge. Output is identical; residency
    /// grows to two units + carry. The labeler itself ignores it.
    pub pipelined: bool,
}

impl Default for StripConfig {
    fn default() -> Self {
        StripConfig {
            threads: 1,
            pipelined: false,
        }
    }
}

impl StripConfig {
    /// Sequential scanning (AREMSP per band or tile).
    pub fn sequential() -> Self {
        StripConfig::default()
    }

    /// PAREMSP across `threads` workers within each band or tile row.
    pub fn parallel(threads: usize) -> Self {
        StripConfig {
            threads,
            ..StripConfig::default()
        }
    }
}

/// Summary returned by [`StripLabeler::finish`] and the drivers
/// (re-exported by `ccl-tiles` as `TileGridStats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Stream width in pixels.
    pub width: usize,
    /// Total rows labeled.
    pub rows: usize,
    /// Number of bands or tile rows pushed with at least one row.
    pub bands: usize,
    /// Label tiles of the pushed units: one per strip band, one per
    /// tile of a tile row (none for a zero-width unit). The same at
    /// every thread count.
    pub tiles: usize,
    /// Total components emitted.
    pub components: u64,
    /// Maximum pixel rows resident at any point: the tallest unit plus
    /// the one carried boundary row (≤ 2 units for any unit height ≥ 1).
    /// Pipelined runs hold two units at once and report the tallest pair
    /// of consecutive units plus the carry row (≤ 2 × unit + 1).
    pub peak_resident_rows: usize,
}

/// One unit of work, borrowed: what the scan stage cuts it into and how
/// the merge stage emits its labels follow from its kind.
#[derive(Clone, Copy)]
pub(crate) enum Unit<'a> {
    /// A strip band: one column tile per worker, labels emitted as one
    /// full-width tile.
    Band(&'a BinaryImage),
    /// A tile row: scanned and emitted as its tiles.
    Tiles(&'a TileRow),
}

impl Unit<'_> {
    /// The scan stage: checks the unit's width and hands its band to the
    /// shared tile-row scan ([`scan_tile_row`]) as column tiles — a strip
    /// band's [`split_spans`]`(width, threads)`, one tile when
    /// sequential, or a tile row's tiles. Carried ids occupy slots
    /// `1..=carry_cap` and `r0` is the global row of the unit's first
    /// line, both supplied by the driver loop ([`crate::pipeline::run`])
    /// or the labeler.
    pub(crate) fn scan(
        self,
        width: usize,
        threads: usize,
        carry_cap: u32,
        r0: usize,
    ) -> Result<ScannedRow, StreamError> {
        let (band, spans) = match self {
            Unit::Band(band) => (band, split_spans(width, threads)),
            Unit::Tiles(row) => (row.band(), row.spans()),
        };
        if band.width() != width {
            return Err(StreamError::WidthMismatch {
                expected: width,
                got: band.width(),
            });
        }
        Ok(scan_tile_row(band, spans, threads, carry_cap, r0))
    }

    /// Whether the unit's labels leave as one full-width tile.
    pub(crate) fn one_tile(self) -> bool {
        matches!(self, Unit::Band(_))
    }
}

/// The out-of-core labeling engine, for strip bands and tile rows alike
/// (re-exported by `ccl-tiles` as `TileGridLabeler`). See the module
/// docs.
///
/// ```
/// use ccl_image::BinaryImage;
/// use ccl_stream::{ComponentRecord, StripLabeler, TileRow};
///
/// let top = BinaryImage::parse("##.. ....");
/// let bottom = BinaryImage::parse(".... ..##");
/// let mut sink: Vec<ComponentRecord> = Vec::new();
/// let mut labeler = StripLabeler::new(4);
/// labeler.push_band(&top, &mut sink).unwrap();
/// labeler.push_band(&bottom, &mut sink).unwrap();
/// let stats = labeler.finish(&mut sink);
/// assert_eq!(stats.components, 2);
/// assert_eq!(sink[0].bbox, (0, 0, 0, 1));
/// assert_eq!(sink[1].bbox, (3, 2, 3, 3));
///
/// // one component crossing both the vertical and horizontal seams of a
/// // grid of 2×2 tiles
/// let top = TileRow::new(BinaryImage::parse(".... .##."), 2);
/// let bottom = TileRow::new(BinaryImage::parse(".##. ...."), 2);
/// let mut sink: Vec<ComponentRecord> = Vec::new();
/// let mut labeler = StripLabeler::new(4);
/// labeler.push_tile_row(&top, &mut sink).unwrap();
/// labeler.push_tile_row(&bottom, &mut sink).unwrap();
/// let stats = labeler.finish(&mut sink);
/// assert_eq!((stats.components, stats.tiles), (1, 4));
/// assert_eq!(sink[0].area, 4);
/// ```
pub struct StripLabeler {
    cfg: StripConfig,
    tiles: usize,
    carry: CarryState,
}

impl StripLabeler {
    /// Sequential labeler for a stream of the given width.
    pub fn new(width: usize) -> Self {
        Self::with_config(width, StripConfig::default())
    }

    /// Labeler with explicit configuration.
    pub fn with_config(width: usize, cfg: StripConfig) -> Self {
        StripLabeler {
            cfg,
            tiles: 0,
            carry: CarryState::new(width),
        }
    }

    /// Stream width in pixels.
    pub fn width(&self) -> usize {
        self.carry.width()
    }

    /// Components currently open (touching the carry row).
    pub fn open_components(&self) -> usize {
        self.carry.open_components()
    }

    /// Provisional labels the scans allocated so far, carried-id slots
    /// excluded. For tile rows the tiling alone fixes it; a strip band's
    /// tiles are its thread split, so for strips it varies with
    /// [`StripConfig::threads`].
    pub fn provisional_labels(&self) -> u64 {
        self.carry.provisional_labels()
    }

    /// Maximum pixel rows resident at any point so far (tallest unit + 1
    /// carry row). This is the bounded-memory invariant: it never exceeds
    /// twice the unit height, however tall the streamed image grows.
    pub fn peak_resident_rows(&self) -> usize {
        self.carry.peak_resident_rows()
    }

    /// Labels the next band of rows, emitting every component that closes.
    pub fn push_band<C: ComponentSink>(
        &mut self,
        band: &BinaryImage,
        components: &mut C,
    ) -> Result<(), StreamError> {
        self.push(Unit::Band(band), components, None)
    }

    /// Like [`Self::push_band`], additionally emitting the band's labels
    /// as one full-width tile (after any id merges) through `labels`.
    pub fn push_band_with_labels<C: ComponentSink, T: TileSink>(
        &mut self,
        band: &BinaryImage,
        components: &mut C,
        labels: &mut T,
    ) -> Result<(), StreamError> {
        self.push(Unit::Band(band), components, Some(labels))
    }

    /// Labels the next tile row, emitting every component that closes.
    /// The row's band must be as wide as the stream.
    pub fn push_tile_row<C: ComponentSink>(
        &mut self,
        row: &TileRow,
        components: &mut C,
    ) -> Result<(), StreamError> {
        self.push(Unit::Tiles(row), components, None)
    }

    /// Like [`Self::push_tile_row`], additionally emitting every labeled
    /// tile (after any id merges) through `labels`.
    pub fn push_tile_row_with_labels<C: ComponentSink, T: TileSink>(
        &mut self,
        row: &TileRow,
        components: &mut C,
        labels: &mut T,
    ) -> Result<(), StreamError> {
        self.push(Unit::Tiles(row), components, Some(labels))
    }

    /// Closes the stream: every still-open component is finalized and
    /// emitted (ascending id), and the run's summary returned.
    pub fn finish<C: ComponentSink + ?Sized>(mut self, components: &mut C) -> StreamStats {
        self.carry.finish(components);
        StreamStats {
            width: self.width(),
            rows: self.carry.rows(),
            bands: self.carry.units(),
            tiles: self.tiles,
            components: self.carry.finalized_components(),
            peak_resident_rows: self.carry.peak_resident_rows(),
        }
    }

    /// Scans and merges one unit, the label sink optional.
    fn push(
        &mut self,
        unit: Unit,
        components: &mut dyn ComponentSink,
        labels: Option<&mut (dyn TileSink + '_)>,
    ) -> Result<(), StreamError> {
        let scanned = unit.scan(
            self.width(),
            self.cfg.threads,
            self.carry.open_components() as u32,
            self.carry.rows(),
        )?;
        self.merge_scanned(scanned, unit.one_tile(), components, labels)
    }

    /// The merge stage: the shared carry merge ([`CarryState::merge`]),
    /// then the unit's labels (after any id merges) through `labels` —
    /// one full-width tile when `one_tile`, else one tile per scanned
    /// span. Counterpart of [`Unit::scan`]; the two called back-to-back
    /// are exactly a push, while the pipelined driver loop
    /// ([`crate::pipeline`]) runs them on different threads, one unit
    /// apart.
    pub(crate) fn merge_scanned(
        &mut self,
        unit: ScannedRow,
        one_tile: bool,
        components: &mut dyn ComponentSink,
        labels: Option<&mut (dyn TileSink + '_)>,
    ) -> Result<(), StreamError> {
        let (row0, height, tile_row) = (self.carry.rows(), unit.rows(), self.carry.units());
        let Some(mut merged) = self.carry.merge(unit, components) else {
            return Ok(());
        };
        let spans: Vec<_> = if one_tile {
            std::iter::once(0..self.width()).collect()
        } else {
            merged.tile_spans().to_vec()
        };
        self.tiles += spans.len();
        let Some(sink) = labels else {
            return Ok(());
        };
        for &(kept, absorbed) in merged.merges() {
            sink.merge(kept, absorbed);
        }
        for (tile_col, span) in spans.into_iter().enumerate() {
            let meta = TileMeta {
                tile_row,
                tile_col,
                row0,
                col0: span.start,
                width: span.len(),
                height,
            };
            let gids = if one_tile {
                merged.gids()
            } else {
                merged.tile_gids(tile_col)
            };
            sink.tile(&meta, &gids)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{CollectTiles, ComponentRecord, CountComponents};

    fn run_banded(
        img: &BinaryImage,
        band_h: usize,
        cfg: StripConfig,
    ) -> (Vec<ComponentRecord>, StreamStats) {
        let mut sink: Vec<ComponentRecord> = Vec::new();
        let mut labeler = StripLabeler::with_config(img.width(), cfg);
        let mut r = 0;
        while r < img.height() {
            let rows = band_h.min(img.height() - r);
            let band = img.crop(r, 0, img.width(), rows);
            labeler.push_band(&band, &mut sink).unwrap();
            r += rows;
        }
        let stats = labeler.finish(&mut sink);
        (sink, stats)
    }

    #[test]
    fn single_band_matches_whole_image_analysis() {
        let img = BinaryImage::parse(
            "##..
             ##..
             ...#",
        );
        let (recs, stats) = run_banded(&img, 3, StripConfig::default());
        assert_eq!(stats.components, 2);
        assert_eq!(recs[0].area, 4);
        assert_eq!(recs[0].bbox, (0, 0, 1, 1));
        assert_eq!(recs[0].anchor, (0, 0));
        assert_eq!(recs[1].area, 1);
        assert_eq!(recs[1].bbox, (2, 3, 2, 3));
    }

    #[test]
    fn component_spanning_every_band_boundary() {
        // vertical line through 8 rows, bands of 2
        let img = BinaryImage::from_fn(5, 8, |_, c| c == 2);
        for band_h in 1..=8 {
            let (recs, stats) = run_banded(&img, band_h, StripConfig::default());
            assert_eq!(stats.components, 1, "band height {band_h}");
            assert_eq!(recs[0].area, 8);
            assert_eq!(recs[0].bbox, (0, 2, 7, 2));
            assert!((recs[0].centroid.0 - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn u_shape_merges_across_bands_and_keeps_older_id() {
        // two arms that join only in the last row
        let img = BinaryImage::parse(
            "#.#
             #.#
             #.#
             ###",
        );
        for band_h in 1..=4 {
            let (recs, stats) = run_banded(&img, band_h, StripConfig::default());
            assert_eq!(stats.components, 1, "band height {band_h}");
            assert_eq!(recs[0].id, 1, "older id survives");
            assert_eq!(recs[0].area, 9);
            assert_eq!(recs[0].bbox, (0, 0, 3, 2));
        }
    }

    #[test]
    fn components_close_as_soon_as_possible() {
        let img = BinaryImage::parse(
            "##..
             ....
             ..##
             ....",
        );
        let mut sink: Vec<ComponentRecord> = Vec::new();
        let mut labeler = StripLabeler::new(4);
        labeler.push_band(&img.crop(0, 0, 4, 2), &mut sink).unwrap();
        // first component closed already: no pixel on row 1
        assert_eq!(sink.len(), 1);
        assert_eq!(labeler.open_components(), 0);
        labeler.push_band(&img.crop(2, 0, 4, 2), &mut sink).unwrap();
        assert_eq!(sink.len(), 2);
        let stats = labeler.finish(&mut sink);
        assert_eq!(stats.components, 2);
        assert_eq!(sink[1].bbox, (2, 2, 2, 3));
    }

    #[test]
    fn label_slots_are_recycled() {
        // many short-lived components: active set stays tiny
        let img = BinaryImage::from_fn(64, 64, |r, _| r % 2 == 0);
        let mut sink = CountComponents::default();
        let mut labeler = StripLabeler::new(64);
        for r in (0..64).step_by(2) {
            labeler
                .push_band(&img.crop(r, 0, 64, 2), &mut sink)
                .unwrap();
            assert!(labeler.open_components() <= 1, "row {r}");
        }
        let stats = labeler.finish(&mut sink);
        assert_eq!(stats.components, 32);
        assert_eq!(sink.count, 32);
    }

    #[test]
    fn bounded_memory_invariant() {
        let img = BinaryImage::from_fn(16, 256, |r, c| (r + c) % 3 != 0);
        let (_, stats) = run_banded(&img, 8, StripConfig::default());
        assert!(stats.peak_resident_rows <= 2 * 8);
        assert_eq!(stats.peak_resident_rows, 9); // 8-row band + carry row
        assert_eq!(stats.rows, 256);
        assert_eq!(stats.bands, 32);
    }

    #[test]
    fn band_height_invariance_on_random_images() {
        let mut state = 7u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        let img = BinaryImage::from_fn(23, 31, |_, _| rnd());
        let (reference, _) = run_banded(&img, 31, StripConfig::default());
        let mut sorted_ref = reference.clone();
        sorted_ref.sort_by_key(|r| r.anchor);
        for band_h in [1, 2, 3, 5, 8, 13, 30] {
            let (mut recs, _) = run_banded(&img, band_h, StripConfig::default());
            recs.sort_by_key(|r| r.anchor);
            let strip: Vec<_> = recs
                .iter()
                .map(|r| (r.anchor, r.area, r.bbox, r.centroid))
                .collect();
            let whole: Vec<_> = sorted_ref
                .iter()
                .map(|r| (r.anchor, r.area, r.bbox, r.centroid))
                .collect();
            assert_eq!(strip, whole, "band height {band_h}");
        }
    }

    #[test]
    fn parallel_mode_is_bit_identical_to_sequential() {
        let mut state = 99u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        let img = BinaryImage::from_fn(40, 57, |_, _| rnd());
        let (seq, seq_stats) = run_banded(&img, 9, StripConfig::sequential());
        for threads in [2, 3, 8] {
            let (par, par_stats) = run_banded(&img, 9, StripConfig::parallel(threads));
            assert_eq!(par, seq, "{threads} threads");
            assert_eq!(par_stats, seq_stats);
        }
    }

    #[test]
    fn strips_reconcile_into_the_exact_partition() {
        let img = BinaryImage::parse(
            "#.#.#
             #.#.#
             #####
             .....
             ##.##",
        );
        let mut comps = CountComponents::default();
        let mut strips = CollectTiles::default();
        let mut labeler = StripLabeler::new(5);
        for r in 0..img.height() {
            labeler
                .push_band_with_labels(&img.crop(r, 0, 5, 1), &mut comps, &mut strips)
                .unwrap();
        }
        let stats = labeler.finish(&mut comps);
        let li = strips.into_label_image();
        assert_eq!(li.num_components() as u64, stats.components);
        let reference = ccl_core::seq::aremsp(&img);
        assert!(ccl_core::verify::labelings_equivalent(&li, &reference));
    }

    #[test]
    fn width_mismatch_is_reported() {
        let mut labeler = StripLabeler::new(4);
        let mut sink = CountComponents::default();
        let err = labeler
            .push_band(&BinaryImage::zeros(3, 2), &mut sink)
            .unwrap_err();
        assert!(matches!(
            err,
            StreamError::WidthMismatch {
                expected: 4,
                got: 3
            }
        ));
    }

    #[test]
    fn empty_and_degenerate_streams() {
        let mut sink = CountComponents::default();
        let stats = StripLabeler::new(8).finish(&mut sink);
        assert_eq!(stats.components, 0);
        assert_eq!(stats.rows, 0);

        // zero-width stream
        let mut labeler = StripLabeler::new(0);
        labeler
            .push_band(&BinaryImage::zeros(0, 5), &mut sink)
            .unwrap();
        let stats = labeler.finish(&mut sink);
        assert_eq!(stats.components, 0);
        assert_eq!(stats.rows, 5);
    }

    #[test]
    fn all_background_band_closes_everything() {
        let mut sink: Vec<ComponentRecord> = Vec::new();
        let mut labeler = StripLabeler::new(3);
        labeler
            .push_band(&BinaryImage::ones(3, 2), &mut sink)
            .unwrap();
        assert_eq!(labeler.open_components(), 1);
        labeler
            .push_band(&BinaryImage::zeros(3, 2), &mut sink)
            .unwrap();
        assert_eq!(labeler.open_components(), 0);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].area, 6);
        let stats = labeler.finish(&mut sink);
        assert_eq!(stats.components, 1);
    }

    /// Brute-force 4-neighbourhood perimeter of the whole image's single
    /// component set, keyed by anchor, for comparison with the streamed
    /// fold.
    fn brute_perimeters(img: &BinaryImage) -> std::collections::HashMap<(usize, usize), u64> {
        let labels = ccl_core::seq::aremsp(img);
        let mut per: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        let mut anchor: std::collections::HashMap<u32, (usize, usize)> =
            std::collections::HashMap::new();
        for r in 0..img.height() {
            for c in 0..img.width() {
                let l = labels.get(r, c);
                if l == 0 {
                    continue;
                }
                anchor.entry(l).or_insert((r, c));
                let edges = [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)]
                    .iter()
                    .filter(|&&(dr, dc)| img.get_or_bg(r as isize + dr, c as isize + dc) == 0)
                    .count() as u64;
                *per.entry(l).or_insert(0) += edges;
            }
        }
        per.into_iter().map(|(l, p)| (anchor[&l], p)).collect()
    }

    #[test]
    fn perimeter_matches_brute_force_across_band_heights() {
        let mut state = 41u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) & 3 != 0
        };
        let img = BinaryImage::from_fn(19, 27, |_, _| rnd());
        let expected = brute_perimeters(&img);
        for band_h in [1, 2, 3, 5, 9, 27] {
            let (recs, _) = run_banded(&img, band_h, StripConfig::default());
            assert_eq!(recs.len(), expected.len(), "band height {band_h}");
            for rec in &recs {
                assert_eq!(
                    rec.perimeter, expected[&rec.anchor],
                    "band height {band_h}, anchor {:?}",
                    rec.anchor
                );
            }
        }
    }

    #[test]
    fn perimeter_of_known_shapes() {
        // 3x3 solid square: perimeter 12; plus ring with hole: the hole's
        // inner edges count too.
        let square = BinaryImage::parse("### ### ###");
        let (recs, _) = run_banded(&square, 1, StripConfig::default());
        assert_eq!(recs[0].perimeter, 12);
        assert_eq!(recs[0].holes, 0);
        let ring = BinaryImage::parse(
            "###
             #.#
             ###",
        );
        let (recs, _) = run_banded(&ring, 2, StripConfig::default());
        assert_eq!(recs[0].perimeter, 12 + 4);
        assert_eq!(recs[0].holes, 1);
        let lone = BinaryImage::parse("#");
        let (recs, _) = run_banded(&lone, 1, StripConfig::default());
        assert_eq!(recs[0].perimeter, 4);
        assert_eq!(recs[0].holes, 0);
    }

    #[test]
    fn holes_match_brute_force_across_band_heights() {
        // a figure-eight (two holes), a diagonal-gap ring (the pinched
        // hole still counts: 4-connected background, 8-connected
        // foreground), and a solid block inside a ring
        for picture in [
            "#####
             #.#.#
             #####",
            ".##
             #.#
             ##.",
            "#####
             #...#
             #.#.#
             #...#
             #####",
        ] {
            let img = BinaryImage::parse(picture);
            let expected =
                ccl_core::analysis::count_holes(&img, ccl_image::Connectivity::Eight) as u64;
            for band_h in 1..=img.height() {
                let (recs, _) = run_banded(&img, band_h, StripConfig::default());
                let total: u64 = recs.iter().map(|r| r.holes).sum();
                assert_eq!(total, expected, "band height {band_h}: {picture}");
            }
        }
    }

    #[test]
    fn ids_are_never_reused_across_closures() {
        let mut sink: Vec<ComponentRecord> = Vec::new();
        let mut labeler = StripLabeler::new(2);
        for _ in 0..5 {
            labeler
                .push_band(&BinaryImage::ones(2, 1), &mut sink)
                .unwrap();
            labeler
                .push_band(&BinaryImage::zeros(2, 1), &mut sink)
                .unwrap();
        }
        labeler.finish(&mut sink);
        let ids: Vec<u64> = sink.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    /// The labeler on tile rows: `push_tile_row` over a tile grid.
    mod tile_rows {
        use super::*;
        use crate::source::{GridSource, TileSource};

        /// Tiles `img` into `tile_w × tile_h` tiles and runs the grid labeler.
        fn run_tiled(
            img: &BinaryImage,
            tile_w: usize,
            tile_h: usize,
            cfg: StripConfig,
        ) -> (Vec<ComponentRecord>, StreamStats) {
            let mut sink: Vec<ComponentRecord> = Vec::new();
            let mut labeler = StripLabeler::with_config(img.width(), cfg);
            let mut src = GridSource::from_image(img, tile_w, tile_h);
            while let Some(tiles) = src.next_tile_row().unwrap() {
                labeler.push_tile_row(&tiles, &mut sink).unwrap();
            }
            let stats = labeler.finish(&mut sink);
            (sink, stats)
        }

        #[test]
        fn single_tile_matches_strip_semantics() {
            let img = BinaryImage::parse(
                "##..
                 ##..
                 ...#",
            );
            let (recs, stats) = run_tiled(&img, 4, 3, StripConfig::default());
            assert_eq!(stats.components, 2);
            assert_eq!(recs[0].area, 4);
            assert_eq!(recs[0].bbox, (0, 0, 1, 1));
            assert_eq!(recs[1].area, 1);
        }

        #[test]
        fn component_crossing_vertical_seam() {
            let img = BinaryImage::from_fn(8, 3, |r, _| r == 1);
            for tile_w in 1..=8 {
                let (recs, stats) = run_tiled(&img, tile_w, 3, StripConfig::default());
                assert_eq!(stats.components, 1, "tile width {tile_w}");
                assert_eq!(recs[0].area, 8);
                assert_eq!(recs[0].bbox, (1, 0, 1, 7));
            }
        }

        #[test]
        fn diagonal_only_vertical_seam_connects() {
            // pixels at (0,1) and (1,2): tiles of width 2 split them into
            // different tiles; only the diagonal crosses the seam
            let img = BinaryImage::parse(
                ".#..
                 ..#.",
            );
            let (recs, stats) = run_tiled(&img, 2, 2, StripConfig::default());
            assert_eq!(stats.components, 1);
            assert_eq!(recs[0].area, 2);
        }

        #[test]
        fn u_shape_across_all_four_tiles() {
            let img = BinaryImage::parse(
                "#..#
                 #..#
                 ####",
            );
            for (tw, th) in [(1, 1), (2, 2), (3, 2), (2, 1), (4, 3), (1, 3)] {
                let (recs, stats) = run_tiled(&img, tw, th, StripConfig::default());
                assert_eq!(stats.components, 1, "{tw}x{th} tiles");
                assert_eq!(recs[0].id, 1, "older id survives");
                assert_eq!(recs[0].area, 8);
            }
        }

        #[test]
        fn tile_shape_invariance_on_random_images() {
            let mut state = 3u64;
            let mut rnd = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 40) & 1 == 1
            };
            let img = BinaryImage::from_fn(21, 17, |_, _| rnd());
            let (reference, _) = run_tiled(&img, 21, 17, StripConfig::default());
            let mut sorted_ref: Vec<_> = reference
                .iter()
                .map(|r| (r.anchor, r.area, r.bbox, r.perimeter))
                .collect();
            sorted_ref.sort_unstable();
            for (tw, th) in [(1, 1), (2, 3), (5, 5), (7, 2), (20, 16), (21, 1), (1, 17)] {
                let (recs, _) = run_tiled(&img, tw, th, StripConfig::default());
                let mut got: Vec<_> = recs
                    .iter()
                    .map(|r| (r.anchor, r.area, r.bbox, r.perimeter))
                    .collect();
                got.sort_unstable();
                assert_eq!(got, sorted_ref, "{tw}x{th} tiles");
            }
        }

        #[test]
        fn parallel_mode_is_bit_identical_to_sequential() {
            let mut state = 1234u64;
            let mut rnd = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 40) & 1 == 1
            };
            let img = BinaryImage::from_fn(37, 29, |_, _| rnd());
            let (seq, seq_stats) = run_tiled(&img, 7, 5, StripConfig::sequential());
            for threads in [2, 3, 8] {
                let (par, par_stats) = run_tiled(&img, 7, 5, StripConfig::parallel(threads));
                assert_eq!(par, seq, "{threads} threads");
                assert_eq!(par_stats, seq_stats);
            }
        }

        #[test]
        fn bounded_memory_invariant() {
            let img = BinaryImage::from_fn(32, 64, |r, c| (r + c) % 3 != 0);
            let (_, stats) = run_tiled(&img, 8, 8, StripConfig::default());
            assert_eq!(stats.peak_resident_rows, 9); // 8-row tile row + carry
            assert_eq!(stats.rows, 64);
            assert_eq!(stats.bands, 8);
            assert_eq!(stats.tiles, 8 * 4);
        }

        #[test]
        fn label_slots_are_recycled() {
            let img = BinaryImage::from_fn(64, 64, |r, _| r % 2 == 0);
            let mut sink = CountComponents::default();
            let mut labeler = StripLabeler::new(64);
            let mut src = GridSource::from_image(&img, 16, 2);
            while let Some(tiles) = src.next_tile_row().unwrap() {
                labeler.push_tile_row(&tiles, &mut sink).unwrap();
                assert!(labeler.open_components() <= 1);
            }
            let stats = labeler.finish(&mut sink);
            assert_eq!(stats.components, 32);
        }

        #[test]
        fn holes_match_whole_image_oracle_across_tile_shapes() {
            // figure-eight (2 holes) + a diagonal-gap ring (1 hole: bg is
            // 4-connected, foreground 8-connected)
            let img = BinaryImage::parse(
                "#####..##
                 #.#.#.#.#
                 #####.##.",
            );
            let expected =
                ccl_core::analysis::count_holes(&img, ccl_image::Connectivity::Eight) as u64;
            for (tw, th) in [(1, 1), (2, 2), (3, 1), (9, 3), (4, 2)] {
                let (recs, _) = run_tiled(&img, tw, th, StripConfig::default());
                let total: u64 = recs.iter().map(|r| r.holes).sum();
                assert_eq!(total, expected, "{tw}x{th} tiles");
            }
        }

        #[test]
        fn width_validation() {
            let mut labeler = StripLabeler::new(4);
            let mut sink = CountComponents::default();
            let err = labeler
                .push_tile_row(&TileRow::new(BinaryImage::zeros(3, 2), 2), &mut sink)
                .unwrap_err();
            assert!(matches!(
                err,
                StreamError::WidthMismatch {
                    expected: 4,
                    got: 3
                }
            ));
        }

        #[test]
        fn empty_and_degenerate_grids() {
            let mut sink = CountComponents::default();
            let stats = StripLabeler::new(8).finish(&mut sink);
            assert_eq!(stats.components, 0);

            let mut labeler = StripLabeler::new(0);
            labeler
                .push_tile_row(&TileRow::new(BinaryImage::zeros(0, 5), 1), &mut sink)
                .unwrap();
            let stats = labeler.finish(&mut sink);
            assert_eq!(stats.components, 0);
            assert_eq!(stats.rows, 5);
        }

        #[test]
        fn provisional_labels_do_not_depend_on_the_thread_count() {
            let img = BinaryImage::from_fn(45, 38, |r, c| (r * 7 + c * 13) % 5 < 2);
            let labels = |threads| {
                let mut labeler = StripLabeler::with_config(45, StripConfig::parallel(threads));
                let mut src = GridSource::from_image(&img, 6, 5);
                while let Some(row) = src.next_tile_row().unwrap() {
                    labeler
                        .push_tile_row(&row, &mut CountComponents::default())
                        .unwrap();
                }
                labeler.provisional_labels()
            };
            let sequential = labels(1);
            assert!(sequential > 0);
            for threads in 2..=4 {
                assert_eq!(labels(threads), sequential, "{threads} threads");
            }
        }
    }
}
