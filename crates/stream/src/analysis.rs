//! On-the-fly component analysis — records, accumulators and sinks.
//!
//! Following Lemaitre & Lacassagne's run-based analysis (PAPERS.md), the
//! strip labeler never materializes a label image: every component's
//! features (area, bounding box, centroid, raster-first anchor,
//! 4-neighbourhood perimeter, hole count) are accumulated while its
//! pixels stream past and emitted exactly once, when the component
//! *closes* (no pixel on the stream's frontier row).
//!
//! Consumers implement [`ComponentSink`] (and optionally [`TileSink`]
//! for labeled output, which [`CollectTiles`] gathers in memory);
//! `Vec<ComponentRecord>` works out of the box for collect-everything
//! callers.
//!
//! # Partial accumulators and the seam fold (fused analysis)
//!
//! The labeler never walks the pixels in a separate sequential
//! accumulation pass. Instead every *scan worker* builds a **partial
//! accumulator table** keyed by provisional label while it scans its
//! chunk (or tile), and the merge stage ([`crate::labeler`]) combines
//! partials per *label*, not per pixel. Three invariants make this
//! exact:
//!
//! 1. **Per-run contributions are order-free.** The folded unit is a
//!    **tile-local run** — a maximal stretch of foreground pixels on one
//!    tile line — whose closed-form accumulator
//!    ([`Accum::from_run_counts`]) equals the fold of its pixels'
//!    single-pixel units ([`Accum::pixel`]).
//!    A pixel's unit is computed from its *already-scanned global*
//!    neighbours (west + the three above, read from the raw pixels —
//!    never from another tile's labels, which may not exist yet). Areas,
//!    bounding boxes, coordinate sums (integer f64, exact below 2^53),
//!    perimeter deltas, Euler deltas and the raster-min anchor are all
//!    folded with a **commutative, associative** operation whose
//!    identity is [`Accum::EMPTY`] — so any partition of the runs into
//!    partials, folded in any order, reproduces the sequential per-pixel
//!    fold bit for bit (property-tested, runs against pixels included,
//!    in `tests/proptest_accum.rs`).
//!
//!    Runs are folded from **packed words**, not bytes: the scan packs
//!    each line one bit per pixel (`ccl_image::runs::pack_line`), finds
//!    its runs from the word edges, and counts each run's neighbours
//!    with popcounts over the packed line above (Σnorth, Σ(north|ne))
//!    and single bit reads (west, nw, north₀) — no per-pixel loop and
//!    no per-pixel branch. [`Accum::from_run_counts`] turns the counts
//!    into the run's accumulator.
//! 2. **Attribution follows connectivity.** A perimeter/Euler delta is
//!    attributed to the pixel that closes it, and the neighbours it
//!    involves are 8-adjacent — always the same final component — so
//!    per-component sums survive arbitrary chunk/tile/seam merges.
//! 3. **Partials live in each worker's own table.** A scan worker
//!    indexes its partials by its own group's labels, in a table no
//!    other worker touches, so workers write without synchronization;
//!    the stitch appends the tables in label order, as it does the
//!    union-find parents. The scan folds every line of its tiles, the
//!    unit's first line against the previous unit's last pixel row,
//!    which the scan stage carries packed to words.
//!    The merge stage touches no pixels: it folds each used label's
//!    partial onto its union-find root right after the carry seam —
//!    O(labels), not O(pixels), once every union has happened.

use std::ops::Range;

use ccl_core::label::LabelImage;

use crate::error::StreamError;

/// Identifier of a streamed component: assigned when the component first
/// appears (raster order of its first pixel), never reused. When two open
/// components turn out to be connected, the smaller (older) id survives.
pub type ComponentId = u64;

/// The features of one finalized component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentRecord {
    /// Stream-unique id (see [`ComponentId`]).
    pub id: ComponentId,
    /// Pixel count.
    pub area: u64,
    /// Inclusive bounding box `(min_row, min_col, max_row, max_col)` in
    /// global image coordinates.
    pub bbox: (usize, usize, usize, usize),
    /// Centroid `(mean_row, mean_col)` in global image coordinates.
    pub centroid: (f64, f64),
    /// Raster-first pixel `(row, col)` — a stable key for matching
    /// components across labelers (no two components share an anchor).
    pub anchor: (usize, usize),
    /// 4-neighbourhood boundary length: the number of pixel edges shared
    /// with background or the image border (Lemaitre & Lacassagne's
    /// on-the-fly perimeter). Folds across merges like area: each pixel
    /// contributes `4 - 2 * (already-seen 4-adjacent neighbours)`, and
    /// summing partial perimeters is exact because 4-adjacent pixels are
    /// always in the same 8-connected component.
    pub perimeter: u64,
    /// Number of holes: 4-connected background regions fully enclosed by
    /// this (8-connected) component, via Lemaitre & Lacassagne's
    /// Euler-characteristic fold — `holes = 1 - χ` where `χ = V − E + F`
    /// of the component's closed-pixel complex, accumulated per pixel
    /// from its already-scanned neighbours (see [`Accum::pixel`]).
    pub holes: u64,
}

/// Running accumulator behind a [`ComponentRecord`]. `area == 0` marks an
/// unused slot.
///
/// Public because it is the reusable building block for any labeler with
/// the "open components fold on merge" structure, as the labeler here
/// is. Ordinary consumers
/// only ever see the finished [`ComponentRecord`]s.
#[derive(Debug, Clone, Copy)]
pub struct Accum {
    /// Pixels accumulated so far (0 = unused slot).
    pub area: u64,
    /// Bounding-box minimum row.
    pub min_r: usize,
    /// Bounding-box minimum column.
    pub min_c: usize,
    /// Bounding-box maximum row.
    pub max_r: usize,
    /// Bounding-box maximum column.
    pub max_c: usize,
    /// Row-coordinate sum (integer-valued in f64, exact below 2^53).
    pub sum_r: f64,
    /// Column-coordinate sum.
    pub sum_c: f64,
    /// Raster-first pixel seen so far.
    pub anchor: (usize, usize),
    /// 4-neighbourhood boundary edges accumulated so far.
    pub perimeter: u64,
    /// Euler characteristic `χ = V − E + F` of the closed-pixel complex
    /// accumulated so far (every vertex, edge and face counted exactly
    /// once, at the raster-first pixel incident to it).
    pub euler: i64,
    /// 0 until the component is assigned its [`ComponentId`].
    pub gid: u64,
}

impl Accum {
    /// The unused-slot sentinel (`area == 0`).
    pub const EMPTY: Accum = Accum {
        area: 0,
        min_r: 0,
        min_c: 0,
        max_r: 0,
        max_c: 0,
        sum_r: 0.0,
        sum_c: 0.0,
        anchor: (0, 0),
        perimeter: 0,
        euler: 0,
        gid: 0,
    };

    /// Accumulator holding one pixel. A component's first pixel (in
    /// raster order) never has an already-seen 4-neighbour, so it
    /// contributes the full 4 edges — and the full square (4 vertices,
    /// 4 edges, 1 face), so `χ = 1`.
    #[inline]
    pub fn first(r: usize, c: usize) -> Accum {
        Accum {
            area: 1,
            min_r: r,
            min_c: c,
            max_r: r,
            max_c: c,
            sum_r: r as f64,
            sum_c: c as f64,
            anchor: (r, c),
            perimeter: 4,
            euler: 1,
            gid: 0,
        }
    }

    /// The accumulator of exactly one pixel with the given already-seen
    /// neighbour mask — the definition the fused path's runs
    /// ([`Accum::from_run_counts`]) are checked against: a component's
    /// accumulator is the [`Accum::fold`] sum of its pixels' units (plus
    /// nothing else), in any order. [`Accum::first`] is the special case
    /// with no live neighbours.
    ///
    /// `west`/`nw`/`north`/`ne` are the four already-scanned foreground
    /// neighbours of `(r, c)`: each shared 4-edge removes one boundary
    /// edge from *both* endpoints (perimeter), and the pixel's Euler
    /// contribution counts only the vertices/edges of its closed unit
    /// square that no earlier pixel created:
    /// `Δχ = ΔV − ΔE + 1 = 1 + north − (west|nw|north) − (north|ne)`.
    /// Every shared vertex/edge joins 8-adjacent pixels, so attributing
    /// the delta to this pixel's component keeps per-component sums exact
    /// across merges.
    #[inline]
    pub fn pixel(r: usize, c: usize, west: bool, nw: bool, north: bool, ne: bool) -> Accum {
        let mut a = Accum::first(r, c);
        a.perimeter = 4 - 2 * (u64::from(west) + u64::from(north));
        a.euler = 1 + i64::from(north) - i64::from(west || nw || north) - i64::from(north || ne);
        a
    }

    /// The accumulator of one run — the foreground pixels `(r, c)` for
    /// `c` in `cols` (non-empty), a maximal stretch of one tile line, the
    /// unit the scan stage folds — from its neighbour counts. It equals,
    /// bit for bit, the raster-order fold of the run's [`Accum::pixel`]
    /// units. The counts are the first pixel's `west`, `nw` and `north0`
    /// neighbours, and over the run the number of pixels with a north
    /// neighbour (`north`) and with a north or ne one (`north_or_ne`; the
    /// last pixel's ne lies past the run). Every pixel after the first
    /// has its west neighbour in the run, so nothing else is needed:
    /// - area `n`, `Σr = r·n`, `Σc = c₀·n + n(n−1)/2` (integer sums,
    ///   converted to f64 once); bbox and anchor from the endpoints;
    /// - perimeter `4n − 2((n−1) + west + Σnorth)`;
    /// - Euler `1 + Σnorth − (west|nw|north₀) − Σ(north|ne)`.
    ///
    /// The scan stage counts straight from packed words (popcounts and
    /// bit reads). The neighbours may lie in the adjacent tiles or the
    /// carried row: they are raw pixels, never labels.
    #[inline]
    pub fn from_run_counts(
        r: usize,
        cols: Range<usize>,
        west: bool,
        nw: bool,
        north0: bool,
        north: u64,
        north_or_ne: u64,
    ) -> Accum {
        let (n, c0) = (cols.len() as u64, cols.start as u64);
        debug_assert!(n > 0, "a run has pixels");
        Accum {
            area: n,
            min_r: r,
            min_c: cols.start,
            max_r: r,
            max_c: cols.end - 1,
            sum_r: (r as u64 * n) as f64,
            sum_c: (c0 * n + n * (n - 1) / 2) as f64,
            anchor: (r, cols.start),
            perimeter: 4 * n - 2 * (n - 1 + u64::from(west) + north),
            euler: 1 + north as i64 - i64::from(west | nw | north0) - north_or_ne as i64,
            gid: 0,
        }
    }

    /// Folds another accumulator in (two open components discovered to be
    /// one). Keeps the raster-smaller anchor; the caller resolves the
    /// surviving `gid`. Perimeters and Euler characteristics sum exactly:
    /// every boundary edge / vertex / face was counted once globally, at
    /// the raster-first pixel incident to it, and any sharing between the
    /// two halves involves 8-adjacent pixels — which always end up in the
    /// same merged component.
    pub fn merge_with(&mut self, other: &Accum) {
        self.area += other.area;
        self.min_r = self.min_r.min(other.min_r);
        self.min_c = self.min_c.min(other.min_c);
        self.max_r = self.max_r.max(other.max_r);
        self.max_c = self.max_c.max(other.max_c);
        self.sum_r += other.sum_r;
        self.sum_c += other.sum_c;
        self.anchor = self.anchor.min(other.anchor);
        self.perimeter += other.perimeter;
        self.euler += other.euler;
    }

    /// The fused path's fold: [`Accum::EMPTY`] is the identity, non-empty
    /// accumulators combine with [`Accum::merge_with`], and the surviving
    /// stream id is the smaller non-zero `gid` (fresh partials carry 0
    /// until the merge stage assigns ids, so a carried component's id
    /// always wins). Commutative and associative —
    /// `tests/proptest_accum.rs` checks fold-order independence across
    /// all 15 synthetic generators.
    #[inline]
    pub fn fold(&mut self, other: &Accum) {
        if other.area == 0 {
            return;
        }
        if self.area == 0 {
            *self = *other;
            return;
        }
        let gid = match (self.gid, other.gid) {
            (0, g) | (g, 0) => g,
            (a, b) => a.min(b),
        };
        self.merge_with(other);
        self.gid = gid;
    }

    /// True for the unused-slot sentinel.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.area == 0
    }

    /// Finishes the accumulator into an emitted record. A connected
    /// component's Euler characteristic is `1 − holes`, so the hole count
    /// falls out of the fold.
    pub fn into_record(self) -> ComponentRecord {
        debug_assert!(self.area > 0 && self.gid > 0);
        debug_assert!(self.euler <= 1, "connected component has χ ≤ 1");
        ComponentRecord {
            id: self.gid,
            area: self.area,
            bbox: (self.min_r, self.min_c, self.max_r, self.max_c),
            centroid: (self.sum_r / self.area as f64, self.sum_c / self.area as f64),
            anchor: self.anchor,
            perimeter: self.perimeter,
            holes: (1 - self.euler).max(0) as u64,
        }
    }
}

/// Receives every component exactly once, when it closes. Emission order
/// is deterministic: ascending id within each band, bands in stream order.
pub trait ComponentSink {
    /// Called once per finalized component.
    fn component(&mut self, record: &ComponentRecord);
}

/// Collect-everything sink.
impl ComponentSink for Vec<ComponentRecord> {
    fn component(&mut self, record: &ComponentRecord) {
        self.push(record.clone());
    }
}

/// Discards records, keeping only a count — for benchmarks measuring pure
/// labeling throughput.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountComponents {
    /// Number of components seen so far.
    pub count: u64,
}

impl ComponentSink for CountComponents {
    fn component(&mut self, _record: &ComponentRecord) {
        self.count += 1;
    }
}

/// Placement of one emitted label tile within the image: a strip band
/// is one full-width tile, a tile row one tile per column span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileMeta {
    /// Index of the band or tile row (0-based, top to bottom).
    pub tile_row: usize,
    /// Tile-column index (0-based, left to right).
    pub tile_col: usize,
    /// Global image row of the tile's first pixel row.
    pub row0: usize,
    /// Global image column of the tile's first pixel column.
    pub col0: usize,
    /// Tile width in pixels.
    pub width: usize,
    /// Tile height in pixels.
    pub height: usize,
}

impl TileMeta {
    /// The extent `(width, rows)` covered by a set of tile placements.
    pub fn extent<'a>(tiles: impl IntoIterator<Item = &'a TileMeta>) -> (usize, usize) {
        tiles.into_iter().fold((0, 0), |(w, h), m| {
            (w.max(m.col0 + m.width), h.max(m.row0 + m.height))
        })
    }

    /// Copies this tile's ids (`tile`, row-major) into the row-major
    /// raster `gids` of `width` columns.
    pub fn blit(&self, gids: &mut [ComponentId], width: usize, tile: &[ComponentId]) {
        for r in 0..self.height {
            let dst = (self.row0 + r) * width + self.col0;
            gids[dst..dst + self.width]
                .copy_from_slice(&tile[r * self.width..(r + 1) * self.width]);
        }
    }
}

/// Receives every labeled tile exactly once, in row-major tile order,
/// for callers who *do* want label output.
///
/// Tile pixels hold [`ComponentId`]s (0 = background) as known at
/// emission time. A component open across bands may later merge with
/// another; [`TileSink::merge`] reports every such event (always before
/// the tiles of the band that discovered it), so a consumer that
/// union-finds the merge pairs obtains the exact final partition.
/// Components that close within the emitted band already carry their
/// final id.
pub trait TileSink {
    /// Two previously emitted ids turned out to be one component; `kept`
    /// (the smaller) survives.
    fn merge(&mut self, kept: ComponentId, absorbed: ComponentId);

    /// One labeled tile, row-major within the tile.
    fn tile(&mut self, meta: &TileMeta, gids: &[ComponentId]) -> Result<(), StreamError>;
}

/// Reference in-memory [`TileSink`]: buffers every tile and merge event,
/// then reconciles them into a [`LabelImage`] (for tests, examples and
/// callers with memory to spare — it holds the whole image, unlike the
/// labeler).
#[derive(Debug, Default)]
pub struct CollectTiles {
    tiles: Vec<(TileMeta, Vec<ComponentId>)>,
    merges: Vec<(ComponentId, ComponentId)>,
}

impl TileSink for CollectTiles {
    fn merge(&mut self, kept: ComponentId, absorbed: ComponentId) {
        self.merges.push((kept, absorbed));
    }

    fn tile(&mut self, meta: &TileMeta, gids: &[ComponentId]) -> Result<(), StreamError> {
        debug_assert_eq!(gids.len(), meta.width * meta.height);
        self.tiles.push((*meta, gids.to_vec()));
        Ok(())
    }
}

impl CollectTiles {
    /// Applies the recorded merges and renumbers components canonically
    /// (consecutive `1..=k` by raster order of first pixel), yielding a
    /// label image comparable to the whole-image labelers via
    /// [`LabelImage::canonicalized`].
    pub fn into_label_image(self) -> LabelImage {
        let (width, height) = TileMeta::extent(self.tiles.iter().map(|(m, _)| m));
        let mut gids = vec![0; width * height];
        for (meta, tile) in &self.tiles {
            meta.blit(&mut gids, width, tile);
        }
        reconcile(width, height, &gids, &self.merges)
    }
}

/// Resolves a raster of emission-time ids through the merge table and
/// renumbers it canonically (consecutive `1..=k` by raster order of
/// first pixel): the one id resolution of [`CollectTiles`] and the spill
/// reader. Merges keep the smaller id, so the `absorbed → kept` chains
/// terminate; walked chains are path-compressed, so hostile ones stay
/// linear overall.
pub fn reconcile(
    width: usize,
    height: usize,
    gids: &[ComponentId],
    merges: &[(ComponentId, ComponentId)],
) -> LabelImage {
    use std::collections::HashMap;
    let mut parent: HashMap<ComponentId, ComponentId> = HashMap::new();
    for &(kept, absorbed) in merges {
        parent.insert(absorbed, kept);
    }
    let mut resolve = |id: ComponentId| {
        let mut root = id;
        while let Some(&p) = parent.get(&root) {
            root = p;
        }
        let mut cur = id;
        while cur != root {
            cur = parent.insert(cur, root).expect("cur lies on the chain");
        }
        root
    };
    let mut remap: HashMap<ComponentId, u32> = HashMap::new();
    let mut next = 0u32;
    let labels: Vec<u32> = gids
        .iter()
        .map(|&g| {
            if g == 0 {
                0
            } else {
                let root = resolve(g);
                *remap.entry(root).or_insert_with(|| {
                    next += 1;
                    next
                })
            }
        })
        .collect();
    LabelImage::from_raw(width, height, labels, next)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accum_tracks_bbox_centroid_anchor_perimeter() {
        // L-tromino at (2,3) (2,4) (3,3): perimeter 8, no hole
        let mut a = Accum::first(2, 3);
        a.fold(&Accum::pixel(2, 4, true, false, false, false));
        a.fold(&Accum::pixel(3, 3, false, false, true, true));
        assert_eq!(a.area, 3);
        assert_eq!((a.min_r, a.min_c, a.max_r, a.max_c), (2, 3, 3, 4));
        assert_eq!(a.anchor, (2, 3));
        assert_eq!(a.perimeter, 8);
        assert_eq!(a.euler, 1);
        a.gid = 1;
        let rec = a.into_record();
        assert!((rec.centroid.0 - 7.0 / 3.0).abs() < 1e-12);
        assert!((rec.centroid.1 - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(rec.perimeter, 8);
        assert_eq!(rec.holes, 0);
    }

    #[test]
    fn merge_keeps_raster_smaller_anchor_and_sums_perimeter() {
        let mut a = Accum::first(5, 1);
        let b = Accum::first(2, 9);
        a.merge_with(&b);
        assert_eq!(a.anchor, (2, 9));
        assert_eq!(a.area, 2);
        assert_eq!((a.min_r, a.max_r), (2, 5));
        assert_eq!(a.perimeter, 8);
        assert_eq!(a.euler, 2);
    }

    #[test]
    fn euler_fold_counts_ring_hole() {
        // 3x3 ring: fold pixel units in raster order with their
        // already-scanned neighbours; χ ends at 0, so exactly one hole.
        let mut a = Accum::first(0, 0);
        for (r, c, west, nw, north, ne) in [
            (0, 1, true, false, false, false),
            (0, 2, true, false, false, false),
            (1, 0, false, false, true, true),
            (1, 2, false, true, true, false),
            (2, 0, false, false, true, false),
            (2, 1, true, true, false, true),
            (2, 2, true, false, true, false),
        ] {
            a.fold(&Accum::pixel(r, c, west, nw, north, ne));
        }
        assert_eq!(a.euler, 0);
        a.gid = 1;
        assert_eq!(a.into_record().holes, 1);
    }

    #[test]
    fn pixel_unit_without_neighbours_is_first() {
        assert_eq!(
            format!("{:?}", Accum::pixel(3, 4, false, false, false, false)),
            format!("{:?}", Accum::first(3, 4))
        );
    }

    #[test]
    fn runs_out_of_raster_order_keep_raster_anchor() {
        let mut a = Accum::EMPTY;
        a.fold(&Accum::from_run_counts(5, 2..4, false, false, false, 0, 0));
        // raster-earlier run folded later
        a.fold(&Accum::from_run_counts(1, 7..10, false, false, false, 0, 0));
        assert_eq!(a.anchor, (1, 7));
        assert_eq!(a.area, 5);
        assert_eq!((a.min_r, a.min_c, a.max_r, a.max_c), (1, 2, 5, 9));
    }

    #[test]
    fn fold_keeps_smaller_nonzero_gid_and_empty_is_identity() {
        let mut a = Accum::first(0, 0);
        a.gid = 9;
        let mut b = Accum::first(1, 1);
        b.gid = 4;
        a.fold(&b);
        assert_eq!(a.gid, 4);
        assert_eq!(a.area, 2);
        let mut c = Accum::first(2, 2); // fresh partial, gid 0
        c.fold(&a);
        assert_eq!(c.gid, 4);
        let before = format!("{c:?}");
        c.fold(&Accum::EMPTY);
        assert_eq!(format!("{c:?}"), before);
        let mut e = Accum::EMPTY;
        e.fold(&c);
        assert_eq!(format!("{e:?}"), before);
    }

    #[test]
    fn vec_sink_collects() {
        let mut sink: Vec<ComponentRecord> = Vec::new();
        let mut a = Accum::first(0, 0);
        a.gid = 7;
        sink.component(&a.into_record());
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].id, 7);
    }

    /// A full-width tile of `gids` for band `tile_row` of a `width`-wide
    /// strip starting at `row0`.
    fn band(tile_row: usize, row0: usize, width: usize, height: usize) -> TileMeta {
        TileMeta {
            tile_row,
            tile_col: 0,
            row0,
            col0: 0,
            width,
            height,
        }
    }

    #[test]
    fn collect_tiles_applies_merges() {
        let mut sink = CollectTiles::default();
        sink.tile(&band(0, 0, 3, 1), &[1, 0, 2]).unwrap();
        sink.merge(1, 2);
        sink.tile(&band(1, 1, 3, 1), &[1, 1, 2]).unwrap();
        let li = sink.into_label_image();
        assert_eq!(li.num_components(), 1);
        assert_eq!(li.as_slice(), &[1, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn collect_tiles_chained_merges() {
        let mut sink = CollectTiles::default();
        sink.tile(&band(0, 0, 5, 1), &[1, 0, 2, 0, 3]).unwrap();
        sink.merge(2, 3);
        sink.merge(1, 2);
        sink.tile(&band(1, 1, 5, 1), &[0, 1, 0, 0, 0]).unwrap();
        let li = sink.into_label_image();
        assert_eq!(li.num_components(), 1);
    }

    #[test]
    fn collect_tiles_reconciles_merges() {
        let meta = |tr, tc, row0, col0, width, height| TileMeta {
            tile_row: tr,
            tile_col: tc,
            row0,
            col0,
            width,
            height,
        };
        let mut sink = CollectTiles::default();
        sink.tile(&meta(0, 0, 0, 0, 2, 1), &[1, 0]).unwrap();
        sink.tile(&meta(0, 1, 0, 2, 1, 1), &[2]).unwrap();
        sink.merge(1, 2);
        sink.tile(&meta(1, 0, 1, 0, 2, 1), &[1, 1]).unwrap();
        sink.tile(&meta(1, 1, 1, 2, 1, 1), &[2]).unwrap();
        let li = sink.into_label_image();
        assert_eq!(li.num_components(), 1);
        assert_eq!(li.as_slice(), &[1, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn long_merge_chains_resolve() {
        // every id absorbed by its predecessor: one component
        let n = 10_000u64;
        let ids: Vec<u64> = (1..=n).collect();
        let merges: Vec<_> = (2..=n).rev().map(|id| (id - 1, id)).collect();
        let li = reconcile(n as usize, 1, &ids, &merges);
        assert_eq!(li.num_components(), 1);
        assert!(li.as_slice().iter().all(|&l| l == 1));
        let mut sink = CollectTiles::default();
        sink.tile(&band(0, 0, n as usize, 1), &ids).unwrap();
        for &(kept, absorbed) in &merges {
            sink.merge(kept, absorbed);
        }
        assert_eq!(sink.into_label_image(), li);
    }

    #[test]
    fn empty_collect_tiles() {
        let li = CollectTiles::default().into_label_image();
        assert_eq!(li.num_components(), 0);
        assert_eq!((li.width(), li.height()), (0, 0));
    }
}
