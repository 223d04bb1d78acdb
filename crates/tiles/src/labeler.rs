//! [`TileGridLabeler`] — the bounded-memory 2-D tile-grid engine.
//!
//! PAREMSP's chunk-scan + boundary-merge structure generalizes from row
//! bands to a full tile grid: every tile of a **tile row** is scanned
//! independently (RemSP inside the tile, with disjoint provisional-label
//! ranges), then connectivity is restored along both seam orientations —
//!
//! * **vertical seams** between horizontally adjacent tiles, walked as
//!   strided columns ([`merge_seam_strided`]) directly over the per-tile
//!   label buffers, no transpose and no stitched full-width buffer;
//! * the **horizontal seam** against the carried last pixel row of the
//!   previous tile row, through the carry merge the strip labeler uses
//!   too ([`ccl_stream::carry`]): the tile row's first and last pixel
//!   lines are assembled in O(width) and handed over as plain slices.
//!
//! In parallel mode the tiles of the resident row are scanned by
//! `threads` workers and the vertical seams merge concurrently with the
//! paper's lock-based MERGER (Algorithm 8) — PAREMSP across the tile
//! row. After each row the label space is compacted to the
//! components still *open* on the carry boundary and every retired slot
//! is recycled, so resident state is
//!
//! * one tile row of pixels and labels,
//! * one carry row (`width` labels),
//! * one [`Accum`] per open component,
//!
//! i.e. **at most two tile rows** of pixel-equivalent memory, independent
//! of image height — and independent of image *width* mattering only
//! linearly (the carry row), never quadratically.

use std::ops::Range;

use ccl_core::par::MergerStore;
use ccl_core::scan::{max_labels_two_line, merge_seam_strided, scan_two_line, split_spans};
use ccl_image::BinaryImage;
use ccl_stream::analysis::Accum;
use ccl_stream::carry::{CarryState, ScannedLines};
use ccl_stream::{BandUf, ComponentSink};
use ccl_unionfind::par::{ConcurrentParents, LockedMerger};
use ccl_unionfind::{EquivalenceStore, RemSP, UnionFind};

use crate::error::TilesError;
use crate::sink::{TileMeta, TileSink};

/// Scan-stage output of the parallel tile-row path: per-tile label
/// buffers, the shared parent array, the partial table (label-indexed)
/// and the used label ranges.
type ParallelTileScan = (
    Vec<Vec<u32>>,
    ConcurrentParents,
    Vec<Accum>,
    Vec<Range<u32>>,
);

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
/// use ccl_tiles::TileGridLabeler;
///
/// // one component crossing both the vertical and horizontal seams
/// let tl = BinaryImage::parse(".. .#");
/// let tr = BinaryImage::parse(".. #.");
/// let bl = BinaryImage::parse(".# ..");
/// let br = BinaryImage::parse("#. ..");
/// let mut sink: Vec<ComponentRecord> = Vec::new();
/// let mut labeler = TileGridLabeler::new(4);
/// labeler.push_tile_row(&[tl, tr], &mut sink).unwrap();
/// labeler.push_tile_row(&[bl, br], &mut sink).unwrap();
/// let stats = labeler.finish(&mut sink);
/// assert_eq!(stats.components, 1);
/// assert_eq!(sink[0].area, 4);
/// ```
pub struct TileGridLabeler {
    cfg: TileGridConfig,
    rows_done: usize,
    tile_rows_done: usize,
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
            rows_done: 0,
            tile_rows_done: 0,
            tiles_done: 0,
            carry: CarryState::new(width),
        }
    }

    /// Grid width in pixels.
    pub fn width(&self) -> usize {
        self.carry.width()
    }

    /// Pixel rows labeled so far.
    pub fn rows_pushed(&self) -> usize {
        self.rows_done
    }

    /// Tile rows pushed so far.
    pub fn tile_rows_pushed(&self) -> usize {
        self.tile_rows_done
    }

    /// Components currently open (touching the carry row).
    pub fn open_components(&self) -> usize {
        self.carry.open_components()
    }

    /// Components emitted so far.
    pub fn finalized_components(&self) -> u64 {
        self.carry.finalized_components()
    }

    /// Maximum pixel rows resident at any point so far (tallest tile row
    /// + 1 carry row) — never exceeds two tile rows.
    pub fn peak_resident_rows(&self) -> usize {
        self.carry.peak_resident_rows()
    }

    /// Labels the next tile row, emitting every component that closes.
    /// `tiles` are left-to-right; their widths must sum to the grid width
    /// and their heights must agree.
    pub fn push_tile_row<C: ComponentSink>(
        &mut self,
        tiles: &[BinaryImage],
        components: &mut C,
    ) -> Result<(), TilesError> {
        self.process(tiles, components, None)
    }

    /// Like [`Self::push_tile_row`], additionally emitting every labeled
    /// tile (and any id merges) through `sink`.
    pub fn push_tile_row_with_labels<C: ComponentSink, T: TileSink>(
        &mut self,
        tiles: &[BinaryImage],
        components: &mut C,
        sink: &mut T,
    ) -> Result<(), TilesError> {
        self.process(tiles, components, Some(sink))
    }

    /// Closes the grid: every still-open component is finalized and
    /// emitted (ascending id), and the run's summary returned.
    pub fn finish<C: ComponentSink + ?Sized>(mut self, components: &mut C) -> TileGridStats {
        self.carry.finish(components);
        TileGridStats {
            width: self.width(),
            rows: self.rows_done,
            tile_rows: self.tile_rows_done,
            tiles: self.tiles_done,
            components: self.carry.finalized_components(),
            peak_resident_rows: self.carry.peak_resident_rows(),
        }
    }

    /// [`Self::push_tile_row`] with the tile sink optional.
    pub(crate) fn process(
        &mut self,
        tiles: &[BinaryImage],
        components: &mut dyn ComponentSink,
        sink: Option<&mut (dyn TileSink + '_)>,
    ) -> Result<(), TilesError> {
        let n_carry = self.carry.open_components() as u32;
        let row = scan_tile_row(tiles, self.width(), &self.cfg, n_carry, self.rows_done)?;
        self.merge_scanned(row, components, sink)
    }

    /// The merge stage: the shared carry merge ([`CarryState::merge`])
    /// over the tile row's assembled first and last lines, then every
    /// labeled tile (and any id merges) through `sink`. Counterpart of
    /// [`scan_tile_row`]; the two called back-to-back are exactly
    /// [`Self::push_tile_row`], while the pipelined executor
    /// ([`ccl_stream::pipeline`]) runs them on different threads, one
    /// tile row apart.
    pub(crate) fn merge_scanned(
        &mut self,
        row: ScannedTileRow,
        components: &mut dyn ComponentSink,
        sink: Option<&mut (dyn TileSink + '_)>,
    ) -> Result<(), TilesError> {
        let ScannedTileRow {
            th,
            widths,
            x0s,
            bufs,
            uf,
            partials,
            used,
            degenerate,
        } = row;
        if degenerate {
            self.rows_done += th;
            self.tile_rows_done += usize::from(th > 0);
            return Ok(());
        }
        let w = self.width();
        let r0 = self.rows_done;
        let first = assemble_row(&bufs, &widths, 0, w);
        let last = assemble_row(&bufs, &widths, th - 1, w);
        let lines = ScannedLines {
            r0,
            rows: th,
            first: &first,
            last: &last,
            uf,
            partials,
            used: &used,
        };
        let mut ids = self.carry.merge(lines, self.cfg.threads, components);
        if let Some(sink) = sink {
            for &(kept, absorbed) in ids.merges() {
                sink.merge(kept, absorbed);
            }
            for (t, buf) in bufs.iter().enumerate() {
                let gids: Vec<u64> = buf.iter().map(|&l| ids.gid(l)).collect();
                sink.tile(
                    &TileMeta {
                        tile_row: self.tile_rows_done,
                        tile_col: t,
                        row0: r0,
                        col0: x0s[t],
                        width: widths[t],
                        height: th,
                    },
                    &gids,
                )?;
            }
        }
        self.rows_done += th;
        self.tile_rows_done += 1;
        self.tiles_done += bufs.len();
        Ok(())
    }
}

/// Post-scan state of one tile row: per-tile label buffers with the
/// vertical seams already merged, and the union-find view the merge
/// stage resolves roots through. Produced by [`scan_tile_row`], consumed
/// by [`TileGridLabeler::merge_scanned`].
pub(crate) struct ScannedTileRow {
    /// Height of every tile in the row (0 for degenerate rows).
    pub(crate) th: usize,
    /// Per-tile widths, left to right.
    pub(crate) widths: Vec<usize>,
    /// Per-tile global column offsets.
    pub(crate) x0s: Vec<usize>,
    /// Per-tile label buffers (row-major within each tile).
    pub(crate) bufs: Vec<Vec<u32>>,
    /// The row's equivalences: carried-id slots `1..=carry_cap`, tile
    /// labels from `carry_cap + 1`.
    pub(crate) uf: BandUf,
    /// Partial accumulators indexed by provisional label, covering every
    /// pixel of the row except its first line (whose upper neighbours are
    /// the carry row the scan must not read).
    pub(crate) partials: Vec<Accum>,
    /// Provisional-label ranges the scan actually allocated — the merge
    /// stage's fold sweeps these instead of the full slot space.
    pub(crate) used: Vec<Range<u32>>,
    /// True for rows with no pixels (zero height or zero width): the
    /// merge stage only counts them.
    pub(crate) degenerate: bool,
}

impl ScannedTileRow {
    /// Pixel rows the tile row keeps resident (none for a degenerate row).
    pub(crate) fn resident_rows(&self) -> usize {
        if self.degenerate {
            0
        } else {
            self.th
        }
    }
}

/// Accumulates one tile's partial table: every foreground pixel of
/// the tile's rows `1..th` folds its single-pixel accumulator into
/// `parts[label - base]`. Neighbour probes read the raw tile pixels —
/// the adjacent tiles' edge columns included — so the result never
/// depends on another tile's label buffer, which may not exist yet. The
/// row's global first line is always skipped: its upper neighbours are
/// the carry row, which the merge stage absorbs in O(width).
#[allow(clippy::too_many_arguments)]
fn accumulate_tile(
    tiles: &[BinaryImage],
    t: usize,
    buf: &[u32],
    th: usize,
    r0: usize,
    x0: usize,
    base: u32,
    parts: &mut [Accum],
) {
    let tile = &tiles[t];
    let tw = tile.width();
    let left = (t > 0).then(|| &tiles[t - 1]).filter(|l| l.width() > 0);
    let right = tiles.get(t + 1).filter(|r| r.width() > 0);
    for r in 1..th {
        let row_base = r * tw;
        let cur = tile.row(r);
        let up = tile.row(r - 1);
        for c in 0..tw {
            let l = buf[row_base + c];
            if l == 0 {
                continue;
            }
            let west = if c > 0 {
                cur[c - 1] == 1
            } else {
                left.is_some_and(|lt| lt.row(r)[lt.width() - 1] == 1)
            };
            let nw = if c > 0 {
                up[c - 1] == 1
            } else {
                left.is_some_and(|lt| lt.row(r - 1)[lt.width() - 1] == 1)
            };
            let north = up[c] == 1;
            let ne = if c + 1 < tw {
                up[c + 1] == 1
            } else {
                right.is_some_and(|rt| rt.row(r - 1)[0] == 1)
            };
            parts[(l - base) as usize].absorb(r0 + r, x0 + c, west, nw, north, ne);
        }
    }
}

/// The scan stage: validates a tile row's shape, scans every tile with
/// chunk-local semantics (RemSP sequentially, PAREMSP worker groups in
/// parallel mode), merges the vertical seams between adjacent tiles, and
/// accumulates every tile's partial table while the pixels are hot
/// ([`accumulate_tile`]).
///
/// Everything here is independent of the carried boundary row — the one
/// dependency between consecutive tile rows — except for the size of the
/// reserved low label slots: carried ids occupy `1..=carry_cap`, tile
/// labels start at `carry_cap + 1`. The synchronous path passes the
/// exact open-component count; the pipelined executor passes the width
/// bound `⌈w/2⌉` (no row can carry more open components than that), so
/// the scan can run before the previous row's compaction has decided the
/// real count. Unused reserved slots stay singleton sets that no tile
/// label ever resolves to, so the output is identical either way. `r0`
/// is the global row of the tile row's first line (partial accumulators
/// hold global coordinates).
pub(crate) fn scan_tile_row(
    tiles: &[BinaryImage],
    width: usize,
    cfg: &TileGridConfig,
    carry_cap: u32,
    r0: usize,
) -> Result<ScannedTileRow, TilesError> {
    let total: usize = tiles.iter().map(BinaryImage::width).sum();
    if total != width {
        return Err(TilesError::WidthMismatch {
            expected: width,
            got: total,
        });
    }
    let th = tiles.first().map_or(0, |t| t.height());
    if let Some(bad) = tiles.iter().find(|t| t.height() != th) {
        return Err(TilesError::RaggedTileRow {
            expected: th,
            got: bad.height(),
        });
    }
    if th == 0 || width == 0 {
        return Ok(ScannedTileRow {
            th,
            widths: Vec::new(),
            x0s: Vec::new(),
            bufs: Vec::new(),
            uf: BandUf::Seq(RemSP::new()),
            partials: Vec::new(),
            used: Vec::new(),
            degenerate: true,
        });
    }
    let widths: Vec<usize> = tiles.iter().map(BinaryImage::width).collect();
    let mut x0s = Vec::with_capacity(tiles.len());
    let mut x0 = 0usize;
    for &tw in &widths {
        x0s.push(x0);
        x0 += tw;
    }

    let (bufs, uf, partials, used) = if cfg.threads <= 1 {
        let capacity: usize = widths
            .iter()
            .map(|&tw| max_labels_two_line(th, tw))
            .sum::<usize>()
            + 1
            + carry_cap as usize;
        let mut store = RemSP::with_capacity(capacity);
        for id in 0..=carry_cap {
            store.new_label(id);
        }
        let mut bufs: Vec<Vec<u32>> = widths.iter().map(|&tw| vec![0u32; tw * th]).collect();
        let mut partials = vec![Accum::EMPTY; capacity];
        let mut next = carry_cap + 1;
        for (t, buf) in bufs.iter_mut().enumerate() {
            next = scan_two_line(&tiles[t], 0..th, buf, &mut store, next);
            accumulate_tile(tiles, t, buf, th, r0, x0s[t], 0, &mut partials);
        }
        partials.truncate(next as usize);
        for t in 1..tiles.len() {
            let lw = widths[t - 1];
            merge_seam_strided(
                &bufs[t - 1][lw - 1..],
                lw,
                &bufs[t],
                widths[t],
                th,
                &mut store,
            );
        }
        let used: Vec<Range<u32>> = std::iter::once(carry_cap + 1..next).collect();
        (bufs, BandUf::Seq(store), partials, used)
    } else {
        let (bufs, parents, partials, used) =
            scan_tile_row_parallel(tiles, &widths, &x0s, th, carry_cap, cfg.threads, r0);
        (bufs, BandUf::Par(parents), partials, used)
    };
    Ok(ScannedTileRow {
        th,
        widths,
        x0s,
        bufs,
        uf,
        partials,
        used,
        degenerate: false,
    })
}

/// Copies local row `r` of every tile buffer into one `width`-long row.
fn assemble_row(bufs: &[Vec<u32>], widths: &[usize], r: usize, width: usize) -> Vec<u32> {
    let mut row = Vec::with_capacity(width);
    for (buf, &tw) in bufs.iter().zip(widths) {
        row.extend_from_slice(&buf[r * tw..(r + 1) * tw]);
    }
    debug_assert_eq!(row.len(), width);
    row
}

/// Parallel tile-row scan: tiles are grouped into at most `threads`
/// contiguous runs scanned concurrently with disjoint provisional-label
/// ranges, then the vertical seams merge concurrently with the lock-based
/// MERGER (Algorithm 8). Every worker also accumulates its tiles' partial
/// [`Accum`] tables (contention-free: partials live in the tile's own
/// label range; neighbour probes read raw pixels, never another worker's
/// labels). The horizontal carry seam is the merge stage's job
/// ([`ccl_stream::carry`]).
fn scan_tile_row_parallel(
    tiles: &[BinaryImage],
    widths: &[usize],
    x0s: &[usize],
    th: usize,
    carry_cap: u32,
    threads: usize,
    r0: usize,
) -> ParallelTileScan {
    let ntiles = tiles.len();
    let threads = threads.max(1);
    // disjoint label ranges, one per tile
    let mut offsets = Vec::with_capacity(ntiles);
    let mut next = carry_cap + 1;
    for &tw in widths {
        offsets.push(next);
        next += max_labels_two_line(th, tw) as u32;
    }
    let parents = ConcurrentParents::new(next as usize);
    {
        let mut store = parents.chunk_store();
        for id in 1..=carry_cap {
            store.new_label(id);
        }
    }
    let mut bufs: Vec<Vec<u32>> = widths.iter().map(|&tw| vec![0u32; tw * th]).collect();
    let mut partials = vec![Accum::EMPTY; next as usize];
    let mut nexts: Vec<u32> = offsets.clone();

    // Phase 1: per-tile scans, grouped into contiguous runs of tiles
    // (contention-free: disjoint ranges, one ChunkStore per group); each
    // tile's partial table accumulates in the same worker, right after
    // its scan, while the pixels are hot.
    rayon::scope(|s| {
        let mut rest: &mut [Vec<u32>] = &mut bufs;
        let mut rest_next: &mut [u32] = &mut nexts;
        let mut rest_parts: &mut [Accum] = &mut partials[(carry_cap as usize + 1)..];
        for group in split_spans(ntiles, threads) {
            let (mine, tail) = rest.split_at_mut(group.len());
            rest = tail;
            let (my_nexts, ntail) = rest_next.split_at_mut(group.len());
            rest_next = ntail;
            let group_caps: usize = group
                .clone()
                .map(|t| max_labels_two_line(th, widths[t]))
                .sum();
            let (my_parts, ptail) = rest_parts.split_at_mut(group_caps);
            rest_parts = ptail;
            let parents = &parents;
            let offsets = &offsets;
            s.spawn(move |_| {
                let mut store = parents.chunk_store();
                let mut parts_rest = my_parts;
                for ((t, buf), next_out) in group.zip(mine).zip(my_nexts) {
                    *next_out = scan_two_line(&tiles[t], 0..th, buf, &mut store, offsets[t]);
                    let cap = max_labels_two_line(th, widths[t]);
                    let (tile_parts, tail) = parts_rest.split_at_mut(cap);
                    parts_rest = tail;
                    accumulate_tile(tiles, t, buf, th, r0, x0s[t], offsets[t], tile_parts);
                }
            });
        }
    });

    // Phase 2: vertical seams between adjacent tiles, concurrently with
    // one shared merger (each boundary reads two finished tile buffers).
    if ntiles > 1 {
        let merger = &LockedMerger::new();
        let bufs_ref = &bufs;
        rayon::scope(|s| {
            for group in split_spans(ntiles - 1, threads) {
                let parents = &parents;
                s.spawn(move |_| {
                    let mut store = MergerStore::new(parents, merger);
                    // boundary i sits between tiles i and i + 1
                    for t in group.start + 1..group.end + 1 {
                        let lw = widths[t - 1];
                        merge_seam_strided(
                            &bufs_ref[t - 1][lw - 1..],
                            lw,
                            &bufs_ref[t],
                            widths[t],
                            th,
                            &mut store,
                        );
                    }
                });
            }
        });
    }

    let used = offsets.iter().zip(&nexts).map(|(&o, &n)| o..n).collect();
    (bufs, parents, partials, used)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn width_and_height_validation() {
        let mut labeler = TileGridLabeler::new(4);
        let mut sink = CountComponents::default();
        let err = labeler
            .push_tile_row(&[BinaryImage::zeros(3, 2)], &mut sink)
            .unwrap_err();
        assert!(matches!(
            err,
            TilesError::WidthMismatch {
                expected: 4,
                got: 3
            }
        ));
        let err = labeler
            .push_tile_row(
                &[BinaryImage::zeros(2, 2), BinaryImage::zeros(2, 3)],
                &mut sink,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            TilesError::RaggedTileRow {
                expected: 2,
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
            .push_tile_row(&[BinaryImage::zeros(0, 5)], &mut sink)
            .unwrap();
        let stats = labeler.finish(&mut sink);
        assert_eq!(stats.components, 0);
        assert_eq!(stats.rows, 5);
    }
}
