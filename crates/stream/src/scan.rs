//! The scan stage — the one scan both out-of-core engines share.
//!
//! PAREMSP scans disjoint chunks with disjoint provisional-label ranges
//! and merges only their boundaries; Komura's generalized label
//! equivalence shows the boundary merge works over any block
//! decomposition. The unit scanned here is a **tile row**: `rows` pixel
//! rows cut into column tiles, left to right. The `ccl-tiles` grid
//! labeler hands over its tile rows as they arrive; the strip labeler
//! ([`crate::StripLabeler`]) hands over each band as one tile
//! (sequential) or as `threads` column tiles (parallel). [`scan_tile_row`]
//!
//! * scans every tile with the two-line scan into its own label buffer —
//!   sequentially into one RemSP store (`threads <= 1`), or in parallel
//!   by at most `threads` workers, each taking a contiguous group of
//!   tiles, into a shared parent array with one label range per tile;
//! * merges the **vertical seams** between adjacent tiles as strided
//!   columns ([`merge_seam_strided`]) over the tile buffers, concurrently
//!   with the paper's lock-based MERGER (Algorithm 8) in parallel mode;
//! * builds each tile's **partial accumulator table** in the worker that
//!   scanned it, while the pixels are hot: one closed-form fold
//!   ([`Accum::run`]) per tile-local run, into the label at the run's
//!   first pixel ([`crate::analysis`] has the invariants). Neighbour
//!   probes read raw pixels — the adjacent tiles' edge columns included
//!   — never another tile's labels.
//!
//! The horizontal seam against the previous unit's carried row is not
//! scanned here: it belongs to the carry merge ([`crate::carry`]), the
//! only per-unit work that depends on the previous unit — the split that
//! lets the pipelined executor ([`crate::pipeline`]) run this stage one
//! unit ahead. Carried ids are reserved by capacity instead: slots
//! `1..=carry_cap` stay singleton sets no tile label resolves to, so a
//! larger reservation (the pipelined width bound) changes nothing.

use std::ops::Range;

use ccl_core::par::MergerStore;
use ccl_core::scan::{
    max_labels_two_line, merge_seam_strided, scan_two_line, split_spans, Foldable as _,
};
use ccl_image::BinaryImage;
use ccl_unionfind::par::{ConcurrentParents, LockedMerger};
use ccl_unionfind::{EquivalenceStore, RemSP, UnionFind};

use crate::analysis::Accum;

/// Post-scan view of one tile row's equivalences: sequential RemSP or
/// the parallel shared parent array. Both are Rem-family (parents ≤
/// children), so [`BandUf::find`] returns the set's minimum label in
/// either case — the property the carry merge relies on for
/// mode-independent output.
pub(crate) enum BandUf {
    /// Sequential mode: one RemSP store owns the whole label space.
    Seq(RemSP),
    /// Parallel mode: the shared parent array the tile scans and seam
    /// merges operated on (all workers joined).
    Par(ConcurrentParents),
}

impl BandUf {
    /// Root (set minimum) of `x`'s equivalence class.
    #[inline]
    pub(crate) fn find(&mut self, x: u32) -> u32 {
        match self {
            BandUf::Seq(uf) => uf.find(x),
            BandUf::Par(p) => {
                let mut r = x;
                loop {
                    let q = p.load(r);
                    if q == r {
                        return r;
                    }
                    r = q;
                }
            }
        }
    }

    /// Memoized [`BandUf::find`]: `cache` holds one slot per label
    /// (`u32::MAX` = unresolved). Callers that resolve *before* a late
    /// seam must not reuse the same cache after it.
    #[inline]
    pub(crate) fn find_cached(&mut self, cache: &mut [u32], x: u32) -> u32 {
        if cache[x as usize] != u32::MAX {
            cache[x as usize]
        } else {
            let r = self.find(x);
            cache[x as usize] = r;
            r
        }
    }

    /// Size of the underlying label slot space (registered or not).
    pub(crate) fn slots(&self) -> usize {
        match self {
            BandUf::Seq(uf) => uf.len(),
            BandUf::Par(p) => p.capacity(),
        }
    }
}

/// One scanned tile row: per-tile label buffers with the vertical seams
/// merged, the equivalences, and the partial accumulator tables.
/// Produced by [`scan_tile_row`], consumed by
/// [`CarryState::merge`](crate::carry::CarryState::merge).
pub struct ScannedRow {
    /// Global row of the first line.
    pub(crate) r0: usize,
    /// Pixel rows (kept for degenerate rows too).
    pub(crate) rows: usize,
    /// Tile widths, left to right (empty for a degenerate row).
    pub(crate) widths: Vec<usize>,
    /// Per-tile label buffers, row-major within each tile. Carried-id
    /// slots `1..=carry_cap` are reserved; tile labels start above them.
    pub(crate) labels: Vec<Vec<u32>>,
    /// The row's equivalences (vertical seams merged, carry seam pending).
    pub(crate) uf: BandUf,
    /// Partial accumulators indexed by provisional label, covering every
    /// pixel except the first line (whose upper neighbours are the carry
    /// row the scan must not read).
    pub(crate) partials: Vec<Accum>,
    /// Provisional-label ranges the scan actually allocated — the carry
    /// merge's fold sweeps these instead of the full slot space.
    pub(crate) used: Vec<Range<u32>>,
}

impl ScannedRow {
    /// Pixel rows in the tile row.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True for rows with no pixels (zero height or zero width): the
    /// engines only count them.
    pub fn is_degenerate(&self) -> bool {
        self.labels.is_empty()
    }

    /// Pixel rows the tile row keeps resident (none for a degenerate row).
    pub fn resident_rows(&self) -> usize {
        if self.is_degenerate() {
            0
        } else {
            self.rows
        }
    }
}

/// Scans one tile row (see the module docs). `tiles` are left to right
/// and share one height; carried ids occupy slots `1..=carry_cap`, tile
/// labels start at `carry_cap + 1`. `r0` is the global row of the first
/// line (partial accumulators hold global coordinates, columns counted
/// from the first tile's left edge).
pub fn scan_tile_row(
    tiles: &[BinaryImage],
    threads: usize,
    carry_cap: u32,
    r0: usize,
) -> ScannedRow {
    let rows = tiles.first().map_or(0, BinaryImage::height);
    debug_assert!(tiles.iter().all(|t| t.height() == rows), "ragged tile row");
    let widths: Vec<usize> = tiles.iter().map(BinaryImage::width).collect();
    if rows == 0 || widths.iter().sum::<usize>() == 0 {
        return ScannedRow {
            r0,
            rows,
            widths: Vec::new(),
            labels: Vec::new(),
            uf: BandUf::Seq(RemSP::new()),
            partials: Vec::new(),
            used: Vec::new(),
        };
    }
    let mut labels: Vec<Vec<u32>> = widths.iter().map(|&tw| vec![0u32; tw * rows]).collect();
    let x0s: Vec<usize> = widths
        .iter()
        .scan(0, |x0, &tw| {
            *x0 += tw;
            Some(*x0 - tw)
        })
        .collect();
    let caps: Vec<usize> = widths
        .iter()
        .map(|&tw| max_labels_two_line(rows, tw))
        .collect();
    let slots = 1 + carry_cap as usize + caps.iter().sum::<usize>();

    if threads <= 1 {
        let mut store = RemSP::with_capacity(slots);
        for id in 0..=carry_cap {
            store.new_label(id);
        }
        let mut partials = Vec::new();
        let mut next = carry_cap + 1;
        for (t, buf) in labels.iter_mut().enumerate() {
            next = scan_two_line(&tiles[t], 0..rows, buf, &mut store, next);
            partials.resize(next as usize, Accum::EMPTY);
            accumulate_tile(tiles, t, buf, r0, x0s[t], 0, &mut partials);
        }
        merge_vertical_seams(&labels, &widths, rows, 1..tiles.len(), &mut store);
        return ScannedRow {
            r0,
            rows,
            widths,
            labels,
            uf: BandUf::Seq(store),
            partials,
            used: std::iter::once(carry_cap + 1..next).collect(),
        };
    }

    // Parallel: one disjoint label range per tile.
    let offsets: Vec<u32> = caps
        .iter()
        .scan(carry_cap + 1, |next, &cap| {
            *next += cap as u32;
            Some(*next - cap as u32)
        })
        .collect();
    let parents = ConcurrentParents::new(slots);
    {
        let mut store = parents.chunk_store();
        for id in 1..=carry_cap {
            store.new_label(id);
        }
    }
    let mut partials = vec![Accum::EMPTY; slots];
    let mut nexts = offsets.clone();

    // Phase 1: per-tile scans, grouped into contiguous runs of tiles
    // (contention-free: disjoint ranges, one ChunkStore per group); each
    // tile's partial table accumulates in the same worker, right after
    // its scan, while the pixels are hot.
    rayon::scope(|s| {
        let mut rest: &mut [Vec<u32>] = &mut labels;
        let mut rest_next: &mut [u32] = &mut nexts;
        let mut rest_parts: &mut [Accum] = &mut partials[carry_cap as usize + 1..];
        for group in split_spans(tiles.len(), threads) {
            let (mine, tail) = rest.split_at_mut(group.len());
            rest = tail;
            let (my_nexts, tail) = rest_next.split_at_mut(group.len());
            rest_next = tail;
            let (my_parts, tail) = rest_parts.split_at_mut(caps[group.clone()].iter().sum());
            rest_parts = tail;
            let (parents, offsets, caps, x0s) = (&parents, &offsets, &caps, &x0s);
            s.spawn(move |_| {
                let mut store = parents.chunk_store();
                let mut parts_rest = my_parts;
                for ((t, buf), next_out) in group.zip(mine).zip(my_nexts) {
                    *next_out = scan_two_line(&tiles[t], 0..rows, buf, &mut store, offsets[t]);
                    let (tile_parts, tail) = parts_rest.split_at_mut(caps[t]);
                    parts_rest = tail;
                    accumulate_tile(tiles, t, buf, r0, x0s[t], offsets[t], tile_parts);
                }
            });
        }
    });

    // Phase 2: vertical seams, concurrently with one shared merger (each
    // boundary reads two finished tile buffers).
    if tiles.len() > 1 {
        let merger = &LockedMerger::new();
        let (labels, widths, parents) = (&labels, &widths, &parents);
        rayon::scope(|s| {
            for group in split_spans(tiles.len() - 1, threads) {
                s.spawn(move |_| {
                    // boundary i sits between tiles i and i + 1
                    let boundaries = group.start + 1..group.end + 1;
                    let mut store = MergerStore::new(parents, merger);
                    merge_vertical_seams(labels, widths, rows, boundaries, &mut store);
                });
            }
        });
    }

    let used = offsets.iter().zip(&nexts).map(|(&o, &n)| o..n).collect();
    ScannedRow {
        r0,
        rows,
        widths,
        labels,
        uf: BandUf::Par(parents),
        partials,
        used,
    }
}

/// Merges the vertical seam on the left of every tile in `boundaries`
/// (tile `t`'s first column against tile `t - 1`'s last).
fn merge_vertical_seams<S: EquivalenceStore>(
    labels: &[Vec<u32>],
    widths: &[usize],
    rows: usize,
    boundaries: Range<usize>,
    store: &mut S,
) {
    for t in boundaries {
        let (lw, tw) = (widths[t - 1], widths[t]);
        merge_seam_strided(&labels[t - 1][lw - 1..], lw, &labels[t], tw, rows, store);
    }
}

/// Accumulates one tile's partial table: every tile-local run of the
/// tile's lines `1..` folds its closed-form accumulator ([`Accum::run`])
/// into `parts[label - base]`, the label at the run's first pixel —
/// where every provisional label is created, so each used label gets a
/// non-empty partial. Neighbour probes read the raw tile pixels — the
/// adjacent tiles' edge columns included — so the result never depends
/// on another tile's label buffer, which may not exist yet. The row's
/// first line is skipped: its upper neighbours are the carry row, which
/// the carry merge folds in O(width).
fn accumulate_tile(
    tiles: &[BinaryImage],
    t: usize,
    buf: &[u32],
    r0: usize,
    x0: usize,
    base: u32,
    parts: &mut [Accum],
) {
    let tile = &tiles[t];
    let tw = tile.width();
    let left = t
        .checked_sub(1)
        .map(|l| &tiles[l])
        .filter(|l| l.width() > 0);
    let right = tiles.get(t + 1).filter(|r| r.width() > 0);
    for r in 1..tile.height() {
        let cur = tile.row(r);
        let up = tile.row(r - 1);
        // the neighbour tiles' edge pixels next to this row pair
        let (left_w, left_nw) = left.map_or((false, false), |lt| {
            let e = lt.width() - 1;
            (lt.row(r)[e] == 1, lt.row(r - 1)[e] == 1)
        });
        let right_ne = right.is_some_and(|rt| rt.row(r - 1)[0] == 1);
        let labels = &buf[r * tw..(r + 1) * tw];
        for_each_run(cur, |a, b| {
            // a run is maximal, so only a run at the tile's left edge
            // can have a west neighbour
            let (west, nw) = if a > 0 {
                (false, up[a - 1] == 1)
            } else {
                (left_w, left_nw)
            };
            let ne = if b < tw { up[b] == 1 } else { right_ne };
            let acc = Accum::run(r0 + r, x0 + a..x0 + b, west, nw, &up[a..b], ne);
            parts[(labels[a] - base) as usize].fold(&acc);
        });
    }
}

/// Calls `f(a, b)` for every run `[a, b)` of `line` — a maximal
/// stretch of foreground in a line of 0/1 pixels — left to right.
/// Word-wide: each 64-pixel block is packed to one bit per pixel (eight
/// pixels per `u64` load), and the run edges are the set bits of
/// `mask ^ (mask << 1)`, so the work per block is one step per run edge
/// rather than one branch per pixel.
pub(crate) fn for_each_run(line: &[u8], mut f: impl FnMut(usize, usize)) {
    // bit i of the product's top byte is byte i of `x`, for 0/1 bytes
    let pack = |x: u64| x.wrapping_mul(0x0102_0408_1020_4080) >> 56;
    let n = line.len();
    // `prev`: the pixel left of the block; `start`: the open run's start
    let (mut prev, mut start) = (0u64, 0);
    for (base, block) in (0..n).step_by(64).zip(line.chunks(64)) {
        let mut m = 0;
        let mut words = block.chunks_exact(8);
        for (k, word) in words.by_ref().enumerate() {
            m |= pack(u64::from_le_bytes(word.try_into().expect("8-byte chunk"))) << (8 * k);
        }
        let len = block.len();
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            m |= pack(u64::from_le_bytes(word)) << (len - tail.len());
        }
        let mut edges = (m ^ ((m << 1) | prev)) & (u64::MAX >> (64 - len));
        while edges != 0 {
            let p = edges.trailing_zeros() as usize;
            edges &= edges - 1;
            if (m >> p) & 1 == 1 {
                start = base + p;
            } else {
                f(start, base + p);
            }
        }
        prev = (m >> (len - 1)) & 1;
    }
    if prev == 1 {
        f(start, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The runs of `line`, one byte at a time.
    fn naive_runs(line: &[u8]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut c = 0;
        while c < line.len() {
            if line[c] == 0 {
                c += 1;
                continue;
            }
            let a = c;
            while c < line.len() && line[c] == 1 {
                c += 1;
            }
            out.push((a, c));
        }
        out
    }

    #[test]
    fn word_wide_runs_match_a_byte_loop() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // every 8-pixel pattern, then random lines of every length
        // around the word and block sizes at several densities
        let mut lines: Vec<Vec<u8>> = (0..256u32)
            .map(|bits| (0..8).map(|i| ((bits >> i) & 1) as u8).collect())
            .collect();
        for len in 0..=200 {
            for density in [1, 2, 4, 7] {
                lines.push((0..len).map(|_| u8::from(next() % 8 < density)).collect());
            }
        }
        for line in &lines {
            let mut runs = Vec::new();
            for_each_run(line, |a, b| runs.push((a, b)));
            assert_eq!(runs, naive_runs(line), "{line:?}");
        }
    }
}
