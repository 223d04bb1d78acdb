//! [`StripLabeler`] — the bounded-memory streaming two-pass engine.
//!
//! PAREMSP's structure (disjoint provisional-label ranges per chunk,
//! boundaries merged afterwards) is exactly what out-of-core labeling
//! needs: treat every arriving band as a chunk, merge its first row
//! against the *carried* last row of the previous band, and throw the
//! band away. The only state that crosses bands is
//!
//! * one boundary row of labels (the **carry row**),
//! * one [`Accum`](crate::analysis) per component still *open* on that
//!   row (area, bbox, centroid sums, anchor, perimeter, id),
//!
//! so the resident footprint is O(band + open components), independent of
//! image height. Label slots are recycled: after each band, the provisional
//! label space is compacted to `1..=k` active ids (components with a pixel
//! on the carry row) and everything else is retired — closed components
//! are emitted through [`ComponentSink`] and their slots reused.
//!
//! The per-band work splits into two stages with one dependency between
//! consecutive bands, both shared with the `ccl-tiles` grid labeler:
//!
//! * **scan stage** (`scan_band`) — a band is a row of column tiles,
//!   each a span of the band scanned in place: one tile scanned with
//!   the two-line scan + RemSP when [`StripConfig::threads`]` == 1`,
//!   `threads` column tiles scanned by as many workers otherwise, each
//!   into a label space of its own that the stage then stitches into one
//!   numbering and merges along the vertical seams ([`crate::scan`]).
//!   Carried ids are reserved by
//!   capacity (the exact open-component count synchronously, the width
//!   bound `⌈w/2⌉` in the pipelined driver loop), so the stage never
//!   looks at the carry row. Each scan worker also builds its
//!   tiles' **partial accumulator tables** while it scans (see
//!   [`crate::analysis`] for the invariants).
//! * **merge stage** (`StripLabeler::merge_scanned_band`) — the carry
//!   seam, the per-label fold, compaction and component emission
//!   ([`crate::carry`]), then the band's labeled strip: inherently
//!   sequential, because each band's carry feeds the next. The carry
//!   state also counts the rows and bands, degenerate ones included, so
//!   this engine keeps only its band validation and its strip emission.
//!
//! Every thread count produces identical output — the carry merge only
//! ever sees set-minimum roots, which every path agrees on, numbers new
//! components in raster order of their anchors, and the fold is exact
//! (commutative, associative, integer-valued f64 sums), so the column
//! split cannot show in records or labels.

use ccl_core::scan::split_spans;
use ccl_image::BinaryImage;

use crate::analysis::{ComponentSink, LabelSink};
use crate::carry::CarryState;
use crate::error::StreamError;
use crate::scan::{scan_tile_row, ScannedRow};

/// Configuration of both out-of-core engines: the strip labeler and the
/// `ccl-tiles` grid labeler (re-exported there as `TileGridConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripConfig {
    /// Worker threads for the scan and the seam merges within one band
    /// or tile row (1 = sequential AREMSP). A parallel strip band is cut
    /// into this many column tiles.
    pub threads: usize,
    /// Whether the driver loop ([`crate::pipeline`], run by
    /// [`label_stream`](crate::label_stream) and
    /// `ccl_tiles::label_tiles`) pipelines: band *k + 1*'s scan overlaps
    /// band *k*'s merge. Output is identical; residency grows to two bands + carry.
    /// The labelers themselves ignore it.
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

/// Summary returned by [`StripLabeler::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Stream width in pixels.
    pub width: usize,
    /// Total rows labeled.
    pub rows: usize,
    /// Number of bands pushed.
    pub bands: usize,
    /// Total components emitted.
    pub components: u64,
    /// Maximum pixel rows resident at any point: the tallest band plus
    /// the one carried boundary row (≤ 2 bands for any band height ≥ 1).
    /// Pipelined runs hold two bands at once and report the tallest pair
    /// of consecutive bands plus the carry row (≤ 2 × band + 1).
    pub peak_resident_rows: usize,
}

/// The strip engine's scan stage: validates the band's width and hands
/// it to the shared tile-row scan ([`scan_tile_row`]) as
/// [`split_spans`]`(width, threads)` column tiles — one tile when
/// sequential — so each worker scans one column of the band in place.
///
/// Carried ids occupy slots `1..=carry_cap` and `r0` is the global row
/// of the band's first row, both supplied by the driver loop
/// ([`crate::pipeline::run`]) or the labeler.
pub(crate) fn scan_band(
    band: &BinaryImage,
    width: usize,
    threads: usize,
    carry_cap: u32,
    r0: usize,
) -> Result<ScannedRow, StreamError> {
    if band.width() != width {
        return Err(StreamError::WidthMismatch {
            expected: width,
            got: band.width(),
        });
    }
    let spans = split_spans(width, threads);
    Ok(scan_tile_row(band, spans, threads, carry_cap, r0))
}

/// The streaming two-pass labeling engine. See the module docs.
///
/// ```
/// use ccl_image::BinaryImage;
/// use ccl_stream::{ComponentRecord, StripLabeler};
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
/// ```
pub struct StripLabeler {
    cfg: StripConfig,
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

    /// Maximum pixel rows resident at any point so far (tallest band + 1
    /// carry row). This is the bounded-memory invariant: it never exceeds
    /// twice the band height, however tall the streamed image grows.
    pub fn peak_resident_rows(&self) -> usize {
        self.carry.peak_resident_rows()
    }

    /// Labels the next band of rows, emitting every component that closes.
    pub fn push_band<C: ComponentSink>(
        &mut self,
        band: &BinaryImage,
        components: &mut C,
    ) -> Result<(), StreamError> {
        self.process(band, components, None)
    }

    /// Like [`Self::push_band`], additionally emitting the band's labeled
    /// strip (and any id merges) through `labels`.
    pub fn push_band_with_labels<C: ComponentSink, L: LabelSink>(
        &mut self,
        band: &BinaryImage,
        components: &mut C,
        labels: &mut L,
    ) -> Result<(), StreamError> {
        self.process(band, components, Some(labels))
    }

    /// Closes the stream: every still-open component is finalized and
    /// emitted (ascending id), and the run's summary returned.
    pub fn finish<C: ComponentSink + ?Sized>(mut self, components: &mut C) -> StreamStats {
        self.carry.finish(components);
        StreamStats {
            width: self.width(),
            rows: self.carry.rows(),
            bands: self.carry.units(),
            components: self.carry.finalized_components(),
            peak_resident_rows: self.carry.peak_resident_rows(),
        }
    }

    /// [`Self::push_band`] with the label sink optional.
    pub(crate) fn process(
        &mut self,
        band: &BinaryImage,
        components: &mut dyn ComponentSink,
        strips: Option<&mut (dyn LabelSink + '_)>,
    ) -> Result<(), StreamError> {
        let scanned = scan_band(
            band,
            self.width(),
            self.cfg.threads,
            self.carry.open_components() as u32,
            self.carry.rows(),
        )?;
        self.merge_scanned_band(scanned, components, strips);
        Ok(())
    }

    /// The merge stage: the shared carry merge ([`CarryState::merge`]),
    /// then the band's labeled strip (and any id merges) through
    /// `strips`. Counterpart of [`scan_band`].
    pub(crate) fn merge_scanned_band(
        &mut self,
        band: ScannedRow,
        components: &mut dyn ComponentSink,
        strips: Option<&mut (dyn LabelSink + '_)>,
    ) {
        let r0 = self.carry.rows();
        let Some(mut merged) = self.carry.merge(band, components) else {
            return;
        };
        if let Some(sink) = strips {
            for &(kept, absorbed) in merged.merges() {
                sink.merge(kept, absorbed);
            }
            sink.strip(r0, self.width(), &merged.gids());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{CollectLabelImage, ComponentRecord, CountComponents};

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
        let mut strips = CollectLabelImage::default();
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
}
