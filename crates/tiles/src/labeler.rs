//! [`TileGridLabeler`] — the bounded-memory 2-D tile-grid engine.
//!
//! PAREMSP's chunk-scan + boundary-merge structure generalizes from row
//! bands to a full tile grid: every tile of a **tile row** (a column
//! span of one band) is scanned in place on its own (two-line scan +
//! RemSP), then connectivity is restored along both seam orientations —
//!
//! * **vertical seams** between horizontally adjacent tiles, walked as
//!   strided columns directly over the per-tile label buffers, no
//!   transpose and no stitched full-width buffer;
//! * the **horizontal seam** against the carried last pixel row of the
//!   previous tile row, through the carry merge ([`ccl_stream::carry`]):
//!   the tile row's first and last pixel lines are assembled in O(width).
//!
//! Both stages are `ccl-stream`'s, shared with the strip labeler — whose
//! bands are tile rows of one tile (sequential) or one column tile per
//! thread: the scan stage ([`ccl_stream::scan`]) scans the tiles of the
//! resident row — in parallel mode as `threads` contiguous groups, each
//! worker labeling its group in a label space of its own, stitched after
//! into the sequential numbering in O(labels) with the few seams between
//! groups merged last — and the carry merge settles the horizontal seam.
//! The carry state also counts the rows and tile rows, degenerate ones
//! included, so this engine adds only the tile row's width check, its tile
//! count and the [`TileMeta`] of every labeled tile. After each row the label
//! space is compacted to the components still *open* on the carry
//! boundary and every retired slot is recycled, so resident state is
//!
//! * one tile row of pixels and labels,
//! * one carry row (`width` labels),
//! * one [`Accum`](ccl_stream::Accum) per open component,
//!
//! i.e. **at most two tile rows** of pixel-equivalent memory, independent
//! of image height — and independent of image *width* mattering only
//! linearly (the carry row), never quadratically.

use ccl_stream::carry::CarryState;
use ccl_stream::scan::{scan_tile_row, ScannedRow};
use ccl_stream::ComponentSink;

use crate::error::TilesError;
use crate::sink::{TileMeta, TileSink};
use crate::source::TileRow;

/// Configuration for [`TileGridLabeler`] and the grid driver: the strip
/// engine's config, shared by both out-of-core engines.
pub use ccl_stream::StripConfig as TileGridConfig;

/// Summary returned by [`TileGridLabeler::finish`]. Mirrors
/// [`StreamStats`](ccl_stream::StreamStats) with the grid-specific tile
/// counters added.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileGridStats {
    /// Grid width in pixels.
    pub width: usize,
    /// Total pixel rows labeled.
    pub rows: usize,
    /// Number of tile rows pushed.
    pub tile_rows: usize,
    /// Total tiles labeled.
    pub tiles: usize,
    /// Total components emitted.
    pub components: u64,
    /// Provisional labels the tile-row scans allocated, carried-id slots
    /// excluded. Fixed by the tiling alone: every thread count and the
    /// pipelined executor report the same count.
    pub provisional_labels: u64,
    /// Maximum pixel rows resident at any point: the tallest tile row
    /// plus the one carried boundary row — the ≤ 2-tile-row bound.
    /// Pipelined runs hold two tile rows at once and report the tallest
    /// pair of consecutive tile rows plus the carry row
    /// (≤ 2 × tile height + 1).
    pub peak_resident_rows: usize,
}

/// The tile-grid two-pass labeling engine. See the module docs.
///
/// ```
/// use ccl_image::BinaryImage;
/// use ccl_stream::ComponentRecord;
/// use ccl_tiles::{TileGridLabeler, TileRow};
///
/// // one component crossing both the vertical and horizontal seams
/// // of a grid of 2×2 tiles
/// let top = TileRow::new(BinaryImage::parse(".... .##."), 2);
/// let bottom = TileRow::new(BinaryImage::parse(".##. ...."), 2);
/// let mut sink: Vec<ComponentRecord> = Vec::new();
/// let mut labeler = TileGridLabeler::new(4);
/// labeler.push_tile_row(&top, &mut sink).unwrap();
/// labeler.push_tile_row(&bottom, &mut sink).unwrap();
/// let stats = labeler.finish(&mut sink);
/// assert_eq!(stats.components, 1);
/// assert_eq!(sink[0].area, 4);
/// ```
pub struct TileGridLabeler {
    cfg: TileGridConfig,
    tiles_done: usize,
    carry: CarryState,
}

impl TileGridLabeler {
    /// Sequential labeler for a grid of the given total width.
    pub fn new(width: usize) -> Self {
        Self::with_config(width, TileGridConfig::default())
    }

    /// Labeler with explicit configuration.
    pub fn with_config(width: usize, cfg: TileGridConfig) -> Self {
        TileGridLabeler {
            cfg,
            tiles_done: 0,
            carry: CarryState::new(width),
        }
    }

    /// Grid width in pixels.
    pub fn width(&self) -> usize {
        self.carry.width()
    }

    /// Components currently open (touching the carry row).
    pub fn open_components(&self) -> usize {
        self.carry.open_components()
    }

    /// Maximum pixel rows resident at any point so far (tallest tile row
    /// + 1 carry row) — never exceeds two tile rows.
    pub fn peak_resident_rows(&self) -> usize {
        self.carry.peak_resident_rows()
    }

    /// Labels the next tile row, emitting every component that closes.
    /// The row's band must be as wide as the grid.
    pub fn push_tile_row<C: ComponentSink>(
        &mut self,
        row: &TileRow,
        components: &mut C,
    ) -> Result<(), TilesError> {
        self.process(row, components, None)
    }

    /// Like [`Self::push_tile_row`], additionally emitting every labeled
    /// tile (and any id merges) through `sink`.
    pub fn push_tile_row_with_labels<C: ComponentSink, T: TileSink>(
        &mut self,
        row: &TileRow,
        components: &mut C,
        sink: &mut T,
    ) -> Result<(), TilesError> {
        self.process(row, components, Some(sink))
    }

    /// Closes the grid: every still-open component is finalized and
    /// emitted (ascending id), and the run's summary returned.
    pub fn finish<C: ComponentSink + ?Sized>(mut self, components: &mut C) -> TileGridStats {
        self.carry.finish(components);
        TileGridStats {
            width: self.width(),
            rows: self.carry.rows(),
            tile_rows: self.carry.units(),
            tiles: self.tiles_done,
            components: self.carry.finalized_components(),
            provisional_labels: self.carry.provisional_labels(),
            peak_resident_rows: self.carry.peak_resident_rows(),
        }
    }

    /// [`Self::push_tile_row`] with the tile sink optional.
    pub(crate) fn process(
        &mut self,
        row: &TileRow,
        components: &mut dyn ComponentSink,
        sink: Option<&mut (dyn TileSink + '_)>,
    ) -> Result<(), TilesError> {
        let row = scan_row(
            row,
            self.width(),
            self.cfg.threads,
            self.carry.open_components() as u32,
            self.carry.rows(),
        )?;
        self.merge_scanned(row, components, sink)
    }

    /// The merge stage: the shared carry merge ([`CarryState::merge`]),
    /// then every labeled tile (and any id merges) through `sink`.
    /// Counterpart of [`scan_row`]; the two called back-to-back are
    /// exactly [`Self::push_tile_row`], while the pipelined driver loop
    /// ([`ccl_stream::pipeline`]) runs them on different threads, one
    /// tile row apart.
    pub(crate) fn merge_scanned(
        &mut self,
        row: ScannedRow,
        components: &mut dyn ComponentSink,
        sink: Option<&mut (dyn TileSink + '_)>,
    ) -> Result<(), TilesError> {
        let (r0, th, tile_row) = (self.carry.rows(), row.rows(), self.carry.units());
        let Some(mut merged) = self.carry.merge(row, components) else {
            return Ok(());
        };
        let spans = merged.tile_spans().to_vec();
        self.tiles_done += spans.len();
        if let Some(sink) = sink {
            for &(kept, absorbed) in merged.merges() {
                sink.merge(kept, absorbed);
            }
            for (t, span) in spans.into_iter().enumerate() {
                let meta = TileMeta {
                    tile_row,
                    tile_col: t,
                    row0: r0,
                    col0: span.start,
                    width: span.len(),
                    height: th,
                };
                sink.tile(&meta, &merged.tile_gids(t))?;
            }
        }
        Ok(())
    }
}

/// The grid engine's scan stage: checks the tile row's width and hands
/// its band and tile spans to the shared tile-row scan
/// ([`scan_tile_row`]). Carried ids occupy slots `1..=carry_cap` and `r0`
/// is the global row of the tile row's first line, both supplied by the
/// driver loop ([`ccl_stream::pipeline::run`]) or the labeler.
pub(crate) fn scan_row(
    row: &TileRow,
    width: usize,
    threads: usize,
    carry_cap: u32,
    r0: usize,
) -> Result<ScannedRow, TilesError> {
    let got = row.band().width();
    if got != width {
        return Err(TilesError::WidthMismatch {
            expected: width,
            got,
        });
    }
    Ok(scan_tile_row(
        row.band(),
        row.spans(),
        threads,
        carry_cap,
        r0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccl_image::BinaryImage;
    use ccl_stream::{ComponentRecord, CountComponents};

    /// Tiles `img` into `tile_w × tile_h` tiles and runs the grid labeler.
    fn run_tiled(
        img: &BinaryImage,
        tile_w: usize,
        tile_h: usize,
        cfg: TileGridConfig,
    ) -> (Vec<ComponentRecord>, TileGridStats) {
        use crate::source::{GridSource, TileSource};
        let mut sink: Vec<ComponentRecord> = Vec::new();
        let mut labeler = TileGridLabeler::with_config(img.width(), cfg);
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
        let (recs, stats) = run_tiled(&img, 4, 3, TileGridConfig::default());
        assert_eq!(stats.components, 2);
        assert_eq!(recs[0].area, 4);
        assert_eq!(recs[0].bbox, (0, 0, 1, 1));
        assert_eq!(recs[1].area, 1);
    }

    #[test]
    fn component_crossing_vertical_seam() {
        let img = BinaryImage::from_fn(8, 3, |r, _| r == 1);
        for tile_w in 1..=8 {
            let (recs, stats) = run_tiled(&img, tile_w, 3, TileGridConfig::default());
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
        let (recs, stats) = run_tiled(&img, 2, 2, TileGridConfig::default());
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
            let (recs, stats) = run_tiled(&img, tw, th, TileGridConfig::default());
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
        let (reference, _) = run_tiled(&img, 21, 17, TileGridConfig::default());
        let mut sorted_ref: Vec<_> = reference
            .iter()
            .map(|r| (r.anchor, r.area, r.bbox, r.perimeter))
            .collect();
        sorted_ref.sort_unstable();
        for (tw, th) in [(1, 1), (2, 3), (5, 5), (7, 2), (20, 16), (21, 1), (1, 17)] {
            let (recs, _) = run_tiled(&img, tw, th, TileGridConfig::default());
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
        let (seq, seq_stats) = run_tiled(&img, 7, 5, TileGridConfig::sequential());
        for threads in [2, 3, 8] {
            let (par, par_stats) = run_tiled(&img, 7, 5, TileGridConfig::parallel(threads));
            assert_eq!(par, seq, "{threads} threads");
            assert_eq!(par_stats, seq_stats);
        }
    }

    #[test]
    fn bounded_memory_invariant() {
        let img = BinaryImage::from_fn(32, 64, |r, c| (r + c) % 3 != 0);
        let (_, stats) = run_tiled(&img, 8, 8, TileGridConfig::default());
        assert_eq!(stats.peak_resident_rows, 9); // 8-row tile row + carry
        assert_eq!(stats.rows, 64);
        assert_eq!(stats.tile_rows, 8);
        assert_eq!(stats.tiles, 8 * 4);
    }

    #[test]
    fn label_slots_are_recycled() {
        let img = BinaryImage::from_fn(64, 64, |r, _| r % 2 == 0);
        let mut sink = CountComponents::default();
        let mut labeler = TileGridLabeler::new(64);
        let mut src = crate::source::GridSource::from_image(&img, 16, 2);
        use crate::source::TileSource;
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
        let expected = ccl_core::analysis::count_holes(&img, ccl_image::Connectivity::Eight) as u64;
        for (tw, th) in [(1, 1), (2, 2), (3, 1), (9, 3), (4, 2)] {
            let (recs, _) = run_tiled(&img, tw, th, TileGridConfig::default());
            let total: u64 = recs.iter().map(|r| r.holes).sum();
            assert_eq!(total, expected, "{tw}x{th} tiles");
        }
    }

    #[test]
    fn width_validation() {
        let mut labeler = TileGridLabeler::new(4);
        let mut sink = CountComponents::default();
        let err = labeler
            .push_tile_row(&TileRow::new(BinaryImage::zeros(3, 2), 2), &mut sink)
            .unwrap_err();
        assert!(matches!(
            err,
            TilesError::WidthMismatch {
                expected: 4,
                got: 3
            }
        ));
    }

    #[test]
    fn empty_and_degenerate_grids() {
        let mut sink = CountComponents::default();
        let stats = TileGridLabeler::new(8).finish(&mut sink);
        assert_eq!(stats.components, 0);

        let mut labeler = TileGridLabeler::new(0);
        labeler
            .push_tile_row(&TileRow::new(BinaryImage::zeros(0, 5), 1), &mut sink)
            .unwrap();
        let stats = labeler.finish(&mut sink);
        assert_eq!(stats.components, 0);
        assert_eq!(stats.rows, 5);
    }
}
