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
//! * on the scan side, the same row's pixels, packed to words, and the
//!   global row of the next unit,
//!
//! so the resident footprint is O(unit + open components), independent
//! of image height. Label slots are recycled: after each unit, the
//! provisional label space is compacted to `1..=k` active ids (components
//! with a pixel on the carry row) and everything else is retired — closed
//! components are emitted through [`ComponentSink`] and their slots
//! reused.
//!
//! The per-unit work splits into two stages. Nothing flows from the
//! merge stage back to the scan stage, so the pipelined driver loop runs
//! the scan one unit ahead:
//!
//! * **scan stage** — the unit's column tiles, each a span of the band
//!   scanned in place with the two-line scan + RemSP, by at most
//!   [`StripConfig::threads`] workers, each into a label space of its own
//!   that the stage then stitches into one numbering and merges along
//!   the vertical seams. It reads the unit's pixels and the previous
//!   unit's last pixel row, never the carry row's labels: carried ids are
//!   reserved by counting the runs on that pixel row, never fewer than
//!   the components open on it. Each scan worker also builds its tiles'
//!   **partial accumulator tables** while it scans, every line folded,
//!   the first against the previous unit's last pixel row (see
//!   [`crate::analysis`] for the invariants).
//! * **merge stage** — everything the scanned unit contributes after its
//!   own scan, settled against the carried state. It reads labels and
//!   accumulators only, never a pixel. Inherently sequential, because
//!   each unit's carry row feeds the next:
//!   1. the **carry seam** between the carry row and the unit's first
//!      line, one sequential pass over the scan's stitched store;
//!   2. the **per-label fold** — carried accumulators onto their
//!      (possibly merged) roots, replaying every carried-id merge, then
//!      each used label's partial onto its root: O(labels), never
//!      O(pixels);
//!   3. **fresh ids** for new components, in raster order of their
//!      anchors: the fresh roots radix-sorted on one packed key each,
//!      the anchor's unit-local raster index `(row - r0) * width + col`;
//!   4. **compaction** of the components still open on the unit's last
//!      line to active ids `1..=k`, which rebuilds the carry row;
//!   5. **emission** of every closed component, ascending id, as two
//!      lists with no sort of the records: the closed carried roots
//!      sorted by id, then the closed fresh roots in the order step 3
//!      numbered them (every carried id is older than every fresh one);
//!      then of the unit's labels through a [`TileSink`] — every
//!      carried-id merge, then a strip band as one full-width tile or a
//!      tile row as its tiles. The labels resolve the way PAREMSP's
//!      FLATTEN and relabel do: one dense table from row label to id,
//!      built in O(labels), and a branch-free gather through it per
//!      pixel into one tile buffer reused across the unit's tiles — no
//!      union-find work per pixel.
//!
//!   A degenerate unit (zero height or zero width) is only counted.
//!   [`StripLabeler::finish`] drains the components still open at the end
//!   of the stream.
//!
//! The labeler also counts the rows, units and tiles, and the peak
//! residency: the unit's rows plus the carry row, and, with
//! [`StripConfig::pipelined`], the previous unit's rows, which the
//! pipelined driver loop holds at the same time.
//!
//! Every thread count produces identical output — the carry merge only
//! ever sees set-minimum roots, which every path agrees on, numbers new
//! components in raster order of their anchors, and the fold is exact
//! (commutative, associative, integer-valued f64 sums), so the column
//! split cannot show in records, labels or stats.
//!
//! [`push_band`]: StripLabeler::push_band
//! [`push_tile_row`]: StripLabeler::push_tile_row

use std::borrow::Cow;
use std::ops::Range;

use ccl_core::scan::{merge_seam, split_spans};
use ccl_image::BinaryImage;
use ccl_unionfind::{RemSP, UnionFind};

use crate::analysis::{Accum, ComponentId, ComponentSink, TileMeta, TileSink};
use crate::error::StreamError;
use crate::scan::{shifted, ScanState, ScannedRow};
use crate::source::TileRow;

/// Configuration of the out-of-core labeler and its drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripConfig {
    /// Worker threads for the scan and the seam merges within one band
    /// or tile row (1 = sequential AREMSP). A parallel strip band is cut
    /// into this many column tiles.
    pub threads: usize,
    /// Whether the driver loop (run by [`label_stream`](crate::label_stream)
    /// and [`label_tiles`](crate::label_tiles)) pipelines: unit *k + 1*'s
    /// scan overlaps unit *k*'s merge. Output is identical; residency
    /// grows to two units + carry, which the labeler counts in
    /// [`StreamStats::peak_resident_rows`].
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

/// Summary returned by [`StripLabeler::finish`] and the drivers.
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
    /// shared tile-row scan ([`ScanState::scan_tile_row`]) as column
    /// tiles — a strip band's [`split_spans`]`(width, threads)`, one tile
    /// when sequential, or a tile row's tiles — recording how its labels
    /// leave. `state` is the stream's scan-side state, the labeler's own
    /// or the driver loop's.
    pub(crate) fn scan(
        self,
        threads: usize,
        state: &mut ScanState,
    ) -> Result<ScannedRow, StreamError> {
        let width = state.width();
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
        Ok(ScannedRow {
            one_tile: matches!(self, Unit::Band(_)),
            ..state.scan_tile_row(band, spans, threads)
        })
    }
}

/// The out-of-core labeling engine, for strip bands and tile rows alike.
/// See the module docs.
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
    width: usize,
    /// The scan stage's state for [`Self::push_band`] and
    /// [`Self::push_tile_row`]; the drivers keep their own.
    scan: ScanState,
    /// Labels (active ids `1..=k`, 0 = background) of the last line of
    /// the previous unit; empty before the first unit with pixels.
    carry: Vec<u32>,
    /// Accumulators of the open components, indexed by active id (slot 0
    /// unused).
    active: Vec<Accum>,
    next_gid: u64,
    /// Pixel rows merged so far, degenerate units included: the next
    /// unit's first global row.
    rows: usize,
    /// Units with at least one row merged so far.
    units: usize,
    tiles: usize,
    finalized: u64,
    provisional_labels: u64,
    /// Pixel rows of the last unit with pixels.
    last_rows: usize,
    peak_resident_rows: usize,
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
            width,
            scan: ScanState::new(width),
            carry: Vec::new(),
            active: vec![Accum::EMPTY],
            next_gid: 1,
            rows: 0,
            units: 0,
            tiles: 0,
            finalized: 0,
            provisional_labels: 0,
            last_rows: 0,
            peak_resident_rows: 0,
        }
    }

    /// Stream width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Components currently open (touching the carry row).
    pub fn open_components(&self) -> usize {
        self.active.len() - 1
    }

    /// Provisional labels the scans allocated so far, carried-id slots
    /// excluded. For tile rows the tiling alone fixes it; a strip band's
    /// tiles are its thread split, so for strips it varies with
    /// [`StripConfig::threads`].
    pub fn provisional_labels(&self) -> u64 {
        self.provisional_labels
    }

    /// Maximum pixel rows resident at any point so far (tallest unit + 1
    /// carry row, or tallest consecutive pair + 1 with
    /// [`StripConfig::pipelined`]). This is the bounded-memory invariant:
    /// it never exceeds twice the unit height (plus one when pipelined),
    /// however tall the streamed image grows.
    pub fn peak_resident_rows(&self) -> usize {
        self.peak_resident_rows
    }

    /// Labels the next band of rows, emitting every component that closes.
    pub fn push_band<C: ComponentSink>(
        &mut self,
        band: &BinaryImage,
        components: &mut C,
    ) -> Result<(), StreamError> {
        self.push(Unit::Band(band), components, None)
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
        let mut remaining: Vec<Accum> = self.active.drain(1..).collect();
        remaining.sort_unstable_by_key(|a| a.gid);
        self.emit(&remaining, components);
        StreamStats {
            width: self.width,
            rows: self.rows,
            bands: self.units,
            tiles: self.tiles,
            components: self.finalized,
            peak_resident_rows: self.peak_resident_rows,
        }
    }

    /// Scans and merges one unit, the label sink optional.
    fn push(
        &mut self,
        unit: Unit,
        components: &mut dyn ComponentSink,
        labels: Option<&mut (dyn TileSink + '_)>,
    ) -> Result<(), StreamError> {
        let scanned = unit.scan(self.cfg.threads, &mut self.scan)?;
        self.merge(scanned, components, labels)
    }

    /// The merge stage (steps 1–5 of the module docs), label output
    /// through `sink` when given. Counterpart of [`Unit::scan`]; the two
    /// called back-to-back are exactly a push, while the pipelined driver
    /// loop runs them on different threads, one unit apart.
    pub(crate) fn merge(
        &mut self,
        unit: ScannedRow,
        components: &mut dyn ComponentSink,
        sink: Option<&mut (dyn TileSink + '_)>,
    ) -> Result<(), StreamError> {
        let tile_row = self.units;
        self.rows += unit.rows;
        self.units += usize::from(unit.rows > 0);
        if unit.labels.is_empty() {
            return Ok(());
        }
        let ScannedRow {
            r0,
            rows,
            spans,
            labels,
            shifts,
            mut uf,
            partials: mut acc,
            used,
            one_tile,
        } = unit;
        let first = line(&labels, &spans, &shifts, 0);
        let last = line(&labels, &spans, &shifts, rows - 1);
        let (first, last) = (&*first, &*last);
        debug_assert_eq!(first.len(), self.width);
        debug_assert_eq!(last.len(), self.width);
        // Residency: this unit, the previous one while the pipelined
        // driver loop holds both (its scanner holds unit k + 1 while unit
        // k merges), and the carry row once a unit has been merged.
        let previous = if self.cfg.pipelined {
            self.last_rows
        } else {
            0
        };
        let resident = rows + previous + usize::from(!self.carry.is_empty());
        self.peak_resident_rows = self.peak_resident_rows.max(resident);
        self.last_rows = rows;
        let n_carry = self.open_components() as u32;
        debug_assert!(
            n_carry < used.start,
            "{n_carry} open components, {} carried ids reserved",
            used.start - 1
        );
        self.provisional_labels += u64::from(used.end - used.start);

        if !self.carry.is_empty() {
            merge_seam(&self.carry, first, &mut uf);
        }

        // After this block `acc[root]` holds the complete accumulator of
        // every component with a pixel in the unit, `root_of` the root of
        // every used label, `carried` the occupied carried roots, `fresh`
        // the roots of the new components (gid still 0) and `merges` the
        // carried-id pairs that turned out to be one component. A set
        // holding a carried id is rooted at one (Rem roots are set minima),
        // so every other root is its own, fresh label.
        let mut carried: Vec<u32> = Vec::new();
        let mut merges: Vec<(ComponentId, ComponentId)> = Vec::new();
        fold_carried(
            &mut uf,
            &self.active,
            n_carry,
            &mut acc,
            &mut carried,
            &mut merges,
        );
        let mut root_of: Vec<u32> = vec![0; uf.len()];
        let mut fresh: Vec<(u64, u32)> = Vec::new();
        for l in used.clone() {
            // every label is created at a tile-local run start, so the
            // scan's fold gave it a partial
            debug_assert!(!acc[l as usize].is_empty(), "label {l} has no pixel");
            let root = uf.find(l);
            root_of[l as usize] = root;
            if root == l {
                fresh.push((0, l));
            } else {
                let p = std::mem::replace(&mut acc[l as usize], Accum::EMPTY);
                acc[root as usize].fold(&p);
            }
        }

        // Fresh ids in raster order of each new component's first pixel
        // — its anchor, unique per component and inside the unit, so its
        // unit-local raster index is the sort key.
        for (key, root) in &mut fresh {
            let (r, c) = acc[*root as usize].anchor;
            *key = ((r - r0) * self.width + c) as u64;
        }
        radix_sort(&mut fresh, (rows * self.width - 1) as u64);
        for &(_, root) in &fresh {
            acc[root as usize].gid = self.next_gid;
            self.next_gid += 1;
        }

        // Components with a pixel on the unit's last line stay open:
        // compact them to active ids 1..=k (order of first occurrence on
        // the line) and rebuild the carry row. Everything else has closed
        // — no later row can reach it. The old carry row and accumulators
        // are dead after the fold, so both are rebuilt in place: a fresh
        // allocation that outlives the unit would sit above the unit's
        // large partial table in the heap and keep its pages resident.
        self.active.truncate(1);
        self.carry.clear();
        self.carry.resize(self.width, 0);
        let mut survivor_id: Vec<u32> = vec![0; root_of.len()];
        for (slot, &l) in self.carry.iter_mut().zip(last) {
            if l == 0 {
                continue;
            }
            let root = root_of[l as usize] as usize;
            if survivor_id[root] == 0 {
                self.active.push(acc[root]);
                survivor_id[root] = (self.active.len() - 1) as u32;
            }
            *slot = survivor_id[root];
        }
        // The closed components leave in ascending id without a sort of
        // the records: every carried id is older than every fresh one, so
        // the carried roots sorted by id (at most the carry row's open
        // components) come first, then the fresh roots in the order they
        // were numbered.
        carried.sort_unstable_by_key(|&root| acc[root as usize].gid);
        let closed = carried
            .iter()
            .chain(fresh.iter().map(|(_, root)| root))
            .filter(|&&root| survivor_id[root as usize] == 0)
            .map(|&root| &acc[root as usize]);
        self.emit(closed, components);

        // Label output: each emitted tile is a run of scanned tiles,
        // row-major across them — a strip band all of them as one
        // full-width tile, a tile row each of its tiles.
        let emitted: Vec<Range<usize>> = if one_tile {
            std::iter::once(0..spans.len()).collect()
        } else {
            (0..spans.len()).map(|t| t..t + 1).collect()
        };
        self.tiles += emitted.len();
        let Some(sink) = sink else {
            return Ok(());
        };
        merges.sort_unstable();
        for (kept, absorbed) in merges {
            sink.merge(kept, absorbed);
        }
        // The unit's labels resolve through one dense table, row label →
        // id (0 for background), built in O(labels); each emitted tile is
        // then a plain gather into one buffer reused across tiles.
        let mut gid_of: Vec<ComponentId> = vec![0; root_of.len()];
        for l in used {
            gid_of[l as usize] = acc[root_of[l as usize] as usize].gid;
        }
        let mut gids: Vec<ComponentId> = Vec::new();
        for (tile_col, tiles) in emitted.into_iter().enumerate() {
            let cols = spans[tiles.start].start..spans[tiles.end - 1].end;
            gids.clear();
            for r in 0..rows {
                for t in tiles.clone() {
                    let (tw, shift) = (spans[t].len(), shifts[t]);
                    let row = &labels[t][r * tw..(r + 1) * tw];
                    gids.extend(row.iter().map(|&l| gid_of[shifted(l, shift) as usize]));
                }
            }
            let meta = TileMeta {
                tile_row,
                tile_col,
                row0: r0,
                col0: cols.start,
                width: cols.len(),
                height: rows,
            };
            sink.tile(&meta, &gids)?;
        }
        Ok(())
    }

    /// Emits finalized components in the given order.
    fn emit<'a, C: ComponentSink + ?Sized>(
        &mut self,
        accs: impl IntoIterator<Item = &'a Accum>,
        components: &mut C,
    ) {
        for acc in accs {
            self.finalized += 1;
            components.component(&acc.into_record());
        }
    }
}

/// Row labels of local line `r` across every tile buffer, left to right:
/// borrowed from a one-tile row (whose shift is 0), assembled in O(width)
/// with each tile's shift applied otherwise.
fn line<'a>(
    labels: &'a [Vec<u32>],
    spans: &[Range<usize>],
    shifts: &[u32],
    r: usize,
) -> Cow<'a, [u32]> {
    match (labels, spans) {
        ([one], [span]) => Cow::Borrowed(&one[r * span.len()..(r + 1) * span.len()]),
        _ => Cow::Owned(
            labels
                .iter()
                .zip(spans)
                .zip(shifts)
                .flat_map(|((buf, span), &shift)| {
                    let tw = span.len();
                    buf[r * tw..(r + 1) * tw]
                        .iter()
                        .map(move |&l| shifted(l, shift))
                })
                .collect(),
        ),
    }
}

/// Sorts `items` by their keys, all unique and at most `max_key`: a
/// two-pass LSD radix sort, one counting pass per half of the key's
/// bits, so O(items + √max_key) — and, the keys being unique, the order
/// `sort_unstable` gives.
fn radix_sort(items: &mut Vec<(u64, u32)>, max_key: u64) {
    let bits = (u64::BITS - max_key.leading_zeros()).div_ceil(2).max(1);
    let mask = (1u64 << bits) - 1;
    let mut counts = vec![0usize; 1 << bits];
    let mut out = vec![(0, 0); items.len()];
    for shift in [0, bits] {
        counts.fill(0);
        for &(key, _) in items.iter() {
            counts[((key >> shift) & mask) as usize] += 1;
        }
        let mut at = 0;
        for count in &mut counts {
            (*count, at) = (at, at + *count);
        }
        for &item in items.iter() {
            let digit = ((item.0 >> shift) & mask) as usize;
            out[counts[digit]] = item;
            counts[digit] += 1;
        }
        std::mem::swap(items, &mut out);
    }
    debug_assert!(items.windows(2).all(|p| p[0].0 < p[1].0), "unique keys");
}

/// Folds the carried accumulators onto their (possibly merged) roots,
/// recording first-occupancy roots in `carried` and carried-id merge
/// pairs in `merges`. Any set containing a carried id is rooted at a
/// carried id (Rem roots are set minima and carried ids occupy the low
/// slots), so every carried root's slot is empty until this fold.
fn fold_carried(
    uf: &mut RemSP,
    active: &[Accum],
    n_carry: u32,
    acc: &mut [Accum],
    carried: &mut Vec<u32>,
    merges: &mut Vec<(ComponentId, ComponentId)>,
) {
    for id in 1..=n_carry {
        let root = uf.find(id);
        let src = active[id as usize];
        let dst = &mut acc[root as usize];
        if dst.area == 0 {
            *dst = src;
            carried.push(root);
        } else {
            let (kept, absorbed) = if dst.gid <= src.gid {
                (dst.gid, src.gid)
            } else {
                (src.gid, dst.gid)
            };
            dst.merge_with(&src);
            dst.gid = kept;
            merges.push((kept, absorbed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{CollectTiles, ComponentRecord, CountComponents};
    use crate::driver::label_stream;
    use crate::source::MemorySource;

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

    /// Residency: the tallest unit plus the carry row synchronously, the
    /// tallest consecutive pair plus the carry row pipelined (the driver
    /// loop then holds two units), a lone unit alone, nothing without
    /// width.
    #[test]
    fn residency_counts_the_carry_row_and_the_pipelined_pair() {
        let peak = |width: usize, heights: &[usize], pipelined: bool| {
            let cfg = StripConfig {
                pipelined,
                ..StripConfig::default()
            };
            let mut labeler = StripLabeler::with_config(width, cfg);
            for &h in heights {
                let band = BinaryImage::ones(width, h);
                labeler
                    .push_band(&band, &mut CountComponents::default())
                    .unwrap();
            }
            labeler.peak_resident_rows()
        };
        assert_eq!(peak(8, &[3, 2, 4], false), 4 + 1);
        assert_eq!(peak(8, &[3, 2, 4], true), 4 + 2 + 1);
        assert_eq!(peak(8, &[4, 4, 4, 1], true), 2 * 4 + 1);
        for pipelined in [false, true] {
            assert_eq!(peak(8, &[3], pipelined), 3);
            assert_eq!(peak(0, &[2, 2, 2], pipelined), 0);
        }
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
        let stats = label_stream(
            &mut MemorySource::new(&img),
            1,
            StripConfig::default(),
            &mut comps,
            Some(&mut strips),
        )
        .unwrap();
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
