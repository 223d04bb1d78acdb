//! The scan stage — the labeler's one scan.
//!
//! The unit scanned here is a **tile row**: one borrowed band of pixel
//! rows plus the column spans of its tiles, left to right. The labeler
//! ([`crate::StripLabeler`]) hands over a [`TileRow`](crate::TileRow) as
//! its band and `tile_width`-wide spans, and a strip band as one span
//! (sequential) or as `threads` column spans (parallel). Tiles are windows of the band, never copies.
//! [`scan_tile_row`] labels locally first and stitches globally after —
//! the split of Chen et al.'s coarse-to-fine labeling and Komura's block
//! decomposition — and builds exactly the label space a sequential scan
//! of the tiles, left to right, would build:
//!
//! * **per-group scan** — the tiles split into at most `threads`
//!   contiguous groups ([`split_spans`]), one worker each (one group runs
//!   inline). A worker scans its tiles' column windows of the band with
//!   the two-line scan into a RemSP store of its own, grows the group's
//!   **partial accumulator table** as labels appear — one closed-form
//!   fold ([`Accum::from_run_counts`]) per tile-local run of the packed
//!   lines ([`PackedLines`], [`fold_runs`]), into the label at the
//!   run's first pixel ([`crate::analysis`] has the invariants) — and
//!   merges the group's own **vertical seams** as strided columns
//!   ([`merge_seam_strided`]). Neighbour probes read the band's raw
//!   pixels — across tile edges too — never another tile's labels.
//! * **stitch** — each later group's labels are shifted by the count of
//!   labels before it: its parents and partials are appended to the
//!   first group's tables in O(labels), and the shift is recorded per tile
//!   and applied wherever labels are read (`shifted`), so no label
//!   buffer is rewritten. The few seams between groups are then merged on
//!   the stitched store. Labels, partials, roots and the used range equal
//!   the one-group scan's, and every table is sized by the labels the
//!   scan allocated, not by a worst case.
//!
//! The horizontal seam against the previous unit's carried row is not
//! scanned here: it belongs to the labeler's merge stage, the only
//! per-unit work that depends on the previous unit — the split that lets
//! the pipelined driver loop ([`crate::pipeline`]) run this stage one
//! unit ahead. Carried ids are reserved by capacity instead: slots
//! `1..=carry_cap` stay singleton sets no tile label resolves to, so a
//! larger reservation (the pipelined width bound) changes nothing.

use std::ops::Range;

use ccl_core::scan::{merge_seam, merge_seam_strided, scan_two_line, split_spans};
use ccl_image::runs::{for_each_run, pack_line};
use ccl_image::BinaryImage;
use ccl_unionfind::{EquivalenceStore, RemSP, UnionFind};

use crate::analysis::Accum;

/// One scanned tile row: per-tile label buffers with the vertical seams
/// merged, the equivalences, and the partial accumulator tables.
/// Produced by [`scan_tile_row`], consumed by the labeler's merge stage.
pub(crate) struct ScannedRow {
    /// Global row of the first line.
    pub(crate) r0: usize,
    /// Pixel rows (kept for degenerate rows too).
    pub(crate) rows: usize,
    /// Tile column spans, left to right (empty for a degenerate row).
    pub(crate) spans: Vec<Range<usize>>,
    /// Per-tile label buffers, row-major within each tile, in their
    /// group's numbering: label `l` of tile `t` is row label
    /// [`shifted`]`(l, shifts[t])`.
    pub(crate) labels: Vec<Vec<u32>>,
    /// Per-tile label shift (0 in the first group).
    pub(crate) shifts: Vec<u32>,
    /// The row's equivalences over row labels (vertical seams merged,
    /// carry seam pending). Carried-id slots `1..=carry_cap` are
    /// reserved; tile labels start above them. Rem roots are set minima.
    pub(crate) uf: RemSP,
    /// Partial accumulators indexed by row label, one per `uf` slot,
    /// covering every pixel except the first line (whose upper neighbours
    /// are the carry row the scan must not read).
    pub(crate) partials: Vec<Accum>,
    /// Row labels the scan allocated: `carry_cap + 1..uf.len()`.
    pub(crate) used: Range<u32>,
    /// Whether the labels leave as one full-width tile (a strip band)
    /// rather than as the scanned tiles (a tile row).
    pub(crate) one_tile: bool,
}

/// Row label of a tile's label `label` under the tile's `shift`
/// (background stays 0), without a branch: the shift is masked off for
/// background.
#[inline]
pub(crate) fn shifted(label: u32, shift: u32) -> u32 {
    label + (shift & 0u32.wrapping_sub(u32::from(label != 0)))
}

/// Scans one tile row (see the module docs): `band` cut into the column
/// tiles `spans`, left to right, which cover its width. Carried ids
/// occupy slots `1..=carry_cap`, tile labels start at `carry_cap + 1`.
/// `r0` is the global row of the first line (partial accumulators hold
/// global coordinates, columns counted from the band's left edge).
pub(crate) fn scan_tile_row(
    band: &BinaryImage,
    spans: Vec<Range<usize>>,
    threads: usize,
    carry_cap: u32,
    r0: usize,
) -> ScannedRow {
    let rows = band.height();
    debug_assert_eq!(
        spans.last().map_or(0, |s| s.end),
        band.width(),
        "spans must cover the band"
    );
    if rows == 0 || spans.is_empty() {
        return ScannedRow {
            r0,
            rows,
            spans: Vec::new(),
            labels: Vec::new(),
            shifts: Vec::new(),
            uf: RemSP::new(),
            partials: Vec::new(),
            used: 0..0,
            one_tile: false,
        };
    }
    let mut labels: Vec<Vec<u32>> = spans.iter().map(|s| vec![0u32; s.len() * rows]).collect();
    // the first group numbers its labels above the carried ids, the
    // others from 1 (the stitch shifts them into place)
    let scan = |group: &Range<usize>, labels: &mut [Vec<u32>]| {
        let first = if group.start == 0 { carry_cap + 1 } else { 1 };
        scan_group(band, &spans[group.clone()], labels, first, r0)
    };
    let groups = split_spans(spans.len(), threads);
    let mut scanned: Vec<Option<(RemSP, Vec<Accum>)>> = groups.iter().map(|_| None).collect();
    if let [group] = &groups[..] {
        scanned[0] = Some(scan(group, &mut labels));
    } else {
        rayon::scope(|s| {
            let mut rest: &mut [Vec<u32>] = &mut labels;
            for (group, slot) in groups.iter().zip(&mut scanned) {
                let (mine, tail) = rest.split_at_mut(group.len());
                rest = tail;
                let scan = &scan;
                s.spawn(move |_| *slot = Some(scan(group, mine)));
            }
        });
    }

    // Stitch: append every later group's labels 1.. after the labels
    // before it, then merge the seams between groups on the stitched store.
    let mut scanned = scanned.into_iter().map(|g| g.expect("every group scanned"));
    let (mut uf, mut partials) = scanned.next().expect("a non-degenerate row has a group");
    let mut shifts = vec![0u32; spans.len()];
    for (group, (store, parts)) in groups.iter().skip(1).zip(scanned) {
        shifts[group.clone()].fill(uf.append_from(&store, 1));
        partials.extend_from_slice(&parts[1..]);
    }
    for t in groups.iter().skip(1).map(|g| g.start) {
        // column `c` of tile `t`, shifted
        let column = |t: usize, c: usize| -> Vec<u32> {
            let tw = spans[t].len();
            (0..rows)
                .map(|r| shifted(labels[t][r * tw + c], shifts[t]))
                .collect()
        };
        let last = spans[t - 1].len() - 1;
        merge_seam(&column(t - 1, last), &column(t, 0), &mut uf);
    }
    debug_assert_eq!(partials.len(), uf.len());
    let used = carry_cap + 1..uf.len() as u32;
    ScannedRow {
        r0,
        rows,
        spans,
        labels,
        shifts,
        uf,
        partials,
        used,
        one_tile: false,
    }
}

/// One group's scan: the tiles `spans` of `band` (whose label buffers
/// are `labels`) scanned left to right into one RemSP store whose labels
/// start at `first` (slots below it are registered singletons), the
/// partial table grown as labels appear — each tile's lines `1..` folded
/// right after the tile's scan ([`fold_runs`]) — and the group's own
/// vertical seams merged.
fn scan_group(
    band: &BinaryImage,
    spans: &[Range<usize>],
    labels: &mut [Vec<u32>],
    first: u32,
    r0: usize,
) -> (RemSP, Vec<Accum>) {
    let rows = band.height();
    let mut store = RemSP::new();
    for id in 0..first {
        store.new_label(id);
    }
    let mut partials = Vec::new();
    let mut lines = PackedLines::new(band.width());
    let mut next = first;
    for (span, buf) in spans.iter().zip(labels.iter_mut()) {
        next = scan_two_line(band, 0..rows, span.clone(), buf, &mut store, next);
        partials.resize(next as usize, Accum::EMPTY);
        let words = lines.words(span);
        lines.pack(band.row(0), &words);
        for (r, line_labels) in buf.chunks_exact(span.len()).enumerate().skip(1) {
            lines.advance();
            lines.pack(band.row(r), &words);
            fold_runs(r0 + r, &lines, span, line_labels, &mut partials);
        }
    }
    for (pair, s) in labels.windows(2).zip(spans.windows(2)) {
        let (lw, tw) = (s[0].len(), s[1].len());
        merge_seam_strided(&pair[0][lw - 1..], lw, &pair[1], tw, rows, &mut store);
    }
    (store, partials)
}

/// The run fold's two lines of a unit, packed one bit per pixel
/// ([`pack_line`]): the line being folded and the line above it. Its
/// owner (a scan group, or the merge for the first line) packs the
/// words a fold reads and moves down a line by swapping the two, so the
/// packed line of row `r` is row `r + 1`'s line above.
pub(crate) struct PackedLines {
    width: usize,
    /// The line being folded.
    line: Vec<u64>,
    /// The line above it.
    above: Vec<u64>,
}

impl PackedLines {
    /// Two all-background lines of `width` pixels.
    pub(crate) fn new(width: usize) -> Self {
        let words = width.div_ceil(64);
        PackedLines {
            width,
            line: vec![0; words],
            above: vec![0; words],
        }
    }

    /// The first line of a unit, as label lines: foreground where the
    /// label is non-zero, the `above` line (the carry row) empty before
    /// the first unit.
    pub(crate) fn of_labels(line: &[u32], above: &[u32]) -> Self {
        let pack = |labels: &[u32], words: &mut [u64]| {
            for (block, word) in labels.chunks(64).zip(words) {
                *word = (block.iter().enumerate()).fold(0, |m, (i, &l)| m | u64::from(l != 0) << i);
            }
        };
        let mut lines = PackedLines::new(line.len());
        pack(line, &mut lines.line);
        pack(above, &mut lines.above);
        lines
    }

    /// The words a fold over the columns `span` reads: the span's and
    /// the column on either side, its runs' west, nw and ne neighbours.
    pub(crate) fn words(&self, span: &Range<usize>) -> Range<usize> {
        span.start.saturating_sub(1) / 64..(span.end + 1).min(self.width).div_ceil(64)
    }

    /// Packs the `words` of the full-width 0/1 `line` as the line being
    /// folded; the other words keep what they held.
    pub(crate) fn pack(&mut self, line: &[u8], words: &Range<usize>) {
        let cols = 64 * words.start..(64 * words.end).min(self.width);
        pack_line(&line[cols], &mut self.line[words.clone()]);
    }

    /// Moves down one line: the line being folded becomes the line above.
    pub(crate) fn advance(&mut self) {
        std::mem::swap(&mut self.line, &mut self.above);
    }
}

/// Set bits in the columns `cols` (non-empty) of the packed line whose
/// word `k` is `word(k)`.
#[inline]
fn ones(cols: Range<usize>, word: impl Fn(usize) -> u64) -> u64 {
    let (i, j) = (cols.start / 64, (cols.end - 1) / 64);
    let head = word(i) & (u64::MAX << (cols.start % 64));
    let tail = u64::MAX >> (63 - (cols.end - 1) % 64);
    let n = if i == j {
        (head & tail).count_ones()
    } else {
        let middle: u32 = (i + 1..j).map(|k| word(k).count_ones()).sum();
        head.count_ones() + middle + (word(j) & tail).count_ones()
    };
    u64::from(n)
}

/// Folds line `r` of a unit into the partial table `parts`: one
/// accumulator per run of the packed `lines.line` within the tile
/// `span`, into the label of the run's first pixel (`labels` is the
/// tile's label line) — where every provisional label is created, so
/// each used label gets a non-empty partial. The accumulator is
/// [`Accum::from_run_counts`] on counts read from the packed words: Σnorth
/// and Σ(north|ne) are popcounts over the line above, west, nw and
/// north₀ single bits. Both lines are full-width, so runs at a tile
/// edge read their west, nw and ne neighbours from the adjacent tile's
/// pixels, never from its labels. The scan folds lines `1..` of each
/// tile; the merge folds line 0 with the carry row as the line above.
#[inline]
pub(crate) fn fold_runs(
    r: usize,
    lines: &PackedLines,
    span: &Range<usize>,
    labels: &[u32],
    parts: &mut [Accum],
) {
    let (line, above) = (&lines.line[..], &lines.above[..]);
    let bit = |words: &[u64], c: usize| (words[c / 64] >> (c % 64)) & 1 == 1;
    // bit c of word k: column c's north or ne neighbour (ne of the
    // word's last column is bit 0 of the next word)
    let north_or_ne =
        |k: usize| above[k] | above[k] >> 1 | above.get(k + 1).map_or(0, |&next| next << 63);
    for_each_run(line, span.clone(), |a, b| {
        let west = a > 0 && bit(line, a - 1);
        let nw = a > 0 && bit(above, a - 1);
        let north = ones(a..b, |k| above[k]);
        let north_or_ne = ones(a..b, north_or_ne);
        let run = Accum::from_run_counts(r, a..b, west, nw, bit(above, a), north, north_or_ne);
        parts[labels[a - span.start] as usize].fold(&run);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The partial table of one line by definition: every foreground
    /// pixel of `span` folded in raster order as its [`Accum::pixel`]
    /// unit into the label of its run's first pixel, the neighbours read
    /// from the full-width 0/1 lines (so from the adjacent tiles too).
    fn pixel_fold(
        r: usize,
        line: &[u8],
        above: &[u8],
        span: &Range<usize>,
        labels: &[u32],
        parts: &mut [Accum],
    ) {
        let fg = |row: &[u8], c: Option<usize>| c.and_then(|c| row.get(c)) == Some(&1);
        let mut run_label = 0;
        for c in span.clone() {
            if line[c] == 0 {
                continue;
            }
            if c == span.start || line[c - 1] == 0 {
                run_label = labels[c - span.start];
            }
            let (west, nw) = (fg(line, c.checked_sub(1)), fg(above, c.checked_sub(1)));
            let unit = Accum::pixel(r, c, west, nw, above[c] == 1, fg(above, Some(c + 1)));
            parts[run_label as usize].fold(&unit);
        }
    }

    /// The packed fold equals the pixel fold on random lines up to 300 px:
    /// spans at and around multiples of 8 and 64, runs across word
    /// boundaries, tile-edge runs whose west, nw and ne neighbours lie in
    /// the adjacent tiles — through the scan's path (byte lines packed
    /// word range by word range over stale words) and the merge's
    /// first-line path (label lines, against a carry row or none).
    #[test]
    fn packed_fold_equals_the_pixel_fold() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let edges = [0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 191, 192, 200];
        for case in 0..3000 {
            let w = 1 + (next() % 300) as usize;
            let density = 1 + next() % 7; // of 8
            let mut random_line =
                || -> Vec<u8> { (0..w).map(|_| u8::from(next() % 8 < density)).collect() };
            let (line, above, stale) = (random_line(), random_line(), random_line());
            let pick = |x: u64| match x % 3 {
                0 => edges[(x / 3) as usize % edges.len()].min(w - 1),
                _ => (x / 3) as usize % w,
            };
            let start = pick(next());
            let end = (start + 1 + pick(next()) % (w - start)).min(w);
            let span = start..end;
            // each run of the span under a label of its own, some shared
            let mut labels = vec![0u32; span.len()];
            let mut label = 0;
            for c in span.clone() {
                if line[c] == 1 && (c == span.start || line[c - 1] == 0) {
                    label = 1 + (next() % 40) as u32;
                }
                labels[c - span.start] = if line[c] == 1 { label } else { 0 };
            }
            let r = (next() % 1000) as usize;
            let ctx = format!("case {case}: width {w}, span {span:?}");

            let mut expected = vec![Accum::EMPTY; 41];
            pixel_fold(r, &line, &above, &span, &labels, &mut expected);
            let expected = format!("{expected:?}");

            // the scan: byte lines packed over the span's words only
            let mut lines = PackedLines::new(w);
            lines.pack(&stale, &(0..w.div_ceil(64)));
            lines.advance();
            lines.pack(&stale, &(0..w.div_ceil(64)));
            let words = lines.words(&span);
            lines.pack(&above, &words);
            lines.advance();
            lines.pack(&line, &words);
            let mut parts = vec![Accum::EMPTY; 41];
            fold_runs(r, &lines, &span, &labels, &mut parts);
            assert_eq!(format!("{parts:?}"), expected, "{ctx}, scan");

            // the merge's first line: label lines, the carry row as above
            let mut as_labels = |px: &[u8]| -> Vec<u32> {
                px.iter()
                    .map(|&p| u32::from(p) * (1 + (next() % 9) as u32))
                    .collect()
            };
            let mut full = as_labels(&line);
            full[span.clone()].copy_from_slice(&labels);
            let carry = as_labels(&above);
            let lines = PackedLines::of_labels(&full, &carry);
            let mut parts = vec![Accum::EMPTY; 41];
            fold_runs(r, &lines, &span, &labels, &mut parts);
            assert_eq!(format!("{parts:?}"), expected, "{ctx}, first line");
            // no carry row (the first unit): the line above is background
            let mut no_carry = vec![Accum::EMPTY; 41];
            pixel_fold(r, &line, &vec![0; w], &span, &labels, &mut no_carry);
            let lines = PackedLines::of_labels(&full, &[]);
            let mut parts = vec![Accum::EMPTY; 41];
            fold_runs(r, &lines, &span, &labels, &mut parts);
            assert_eq!(
                format!("{parts:?}"),
                format!("{no_carry:?}"),
                "{ctx}, no carry"
            );
        }
    }

    #[test]
    fn parallel_scan_equals_the_sequential_scan() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let ntiles = 1 + (next() % 9) as usize;
            let rows = 1 + (next() % 9) as usize;
            let density = next() % 9; // of 8: 0 empty .. 8 full
            let carry_cap = [0, 1, (next() % 40) as u32][case % 3];
            let widths: Vec<usize> = (0..ntiles).map(|_| 1 + (next() % 7) as usize).collect();
            let w: usize = widths.iter().sum();
            let px: Vec<bool> = (0..w * rows).map(|_| next() % 8 < density).collect();
            let band = BinaryImage::from_fn(w, rows, |r, c| px[r * w + c]);
            let spans: Vec<Range<usize>> = widths
                .iter()
                .scan(0, |x0, &tw| {
                    *x0 += tw;
                    Some(*x0 - tw..*x0)
                })
                .collect();
            let r0 = (next() % 100) as usize;
            let mut seq = scan_tile_row(&band, spans.clone(), 1, carry_cap, r0);
            assert!(seq.shifts.iter().all(|&s| s == 0));
            for threads in 2..=8 {
                let mut par = scan_tile_row(&band, spans.clone(), threads, carry_cap, r0);
                let ctx = format!("case {case}, {threads} threads");
                for t in 0..ntiles {
                    let labels: Vec<u32> = par.labels[t]
                        .iter()
                        .map(|&l| shifted(l, par.shifts[t]))
                        .collect();
                    assert_eq!(labels, seq.labels[t], "{ctx}, tile {t}");
                }
                assert_eq!(par.used, seq.used, "{ctx}");
                assert_eq!(
                    format!("{:?}", par.partials),
                    format!("{:?}", seq.partials),
                    "{ctx}"
                );
                // every table is sized by the labels the scan used
                let allocated = par
                    .labels
                    .iter()
                    .zip(&par.shifts)
                    .flat_map(|(buf, &s)| buf.iter().map(move |&l| shifted(l, s)));
                let top = allocated.max().unwrap_or(0).max(carry_cap);
                assert_eq!(par.used, carry_cap + 1..top + 1, "{ctx}");
                assert_eq!(
                    par.uf.len(),
                    1 + carry_cap as usize + par.used.len(),
                    "{ctx}"
                );
                assert_eq!(par.partials.len(), par.uf.len(), "{ctx}");
                for l in 0..par.uf.len() as u32 {
                    assert_eq!(par.uf.find(l), seq.uf.find(l), "{ctx}, label {l}");
                }
            }
        }
    }
}
