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
//!   fold ([`Accum::run`]) per tile-local run, into the label at the
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
use ccl_image::runs::for_each_run;
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
    let mut next = first;
    for (span, buf) in spans.iter().zip(labels.iter_mut()) {
        next = scan_two_line(band, 0..rows, span.clone(), buf, &mut store, next);
        partials.resize(next as usize, Accum::EMPTY);
        for (r, line_labels) in buf.chunks_exact(span.len()).enumerate().skip(1) {
            let (line, above) = (band.row(r), band.row(r - 1));
            fold_runs(r0 + r, line, above, span, line_labels, &mut partials);
        }
    }
    for (pair, s) in labels.windows(2).zip(spans.windows(2)) {
        let (lw, tw) = (s[0].len(), s[1].len());
        merge_seam_strided(&pair[0][lw - 1..], lw, &pair[1], tw, rows, &mut store);
    }
    (store, partials)
}

/// Folds line `r` of a unit into the partial table `parts`: one
/// closed-form accumulator ([`Accum::run`]) per run of `line` within the
/// tile `span`, into the label of the run's first pixel (`labels` is the
/// tile's label line) — where every provisional label is created, so
/// each used label gets a non-empty partial. `line` and `above` are the
/// unit's full-width 0/1 lines, so runs at a tile edge read their
/// west, nw and ne neighbours from the adjacent tile's pixels, never
/// from its labels. The scan folds lines `1..` of each tile; the carry
/// merge folds line 0 with the carry row as `above`.
#[inline]
pub(crate) fn fold_runs(
    r: usize,
    line: &[u8],
    above: &[u8],
    span: &Range<usize>,
    labels: &[u32],
    parts: &mut [Accum],
) {
    let w = line.len();
    for_each_run(&line[span.clone()], |a, b| {
        let label = labels[a] as usize;
        let (a, b) = (span.start + a, span.start + b);
        let west = a > 0 && line[a - 1] == 1;
        let nw = a > 0 && above[a - 1] == 1;
        let ne = b < w && above[b] == 1;
        parts[label].fold(&Accum::run(r, a..b, west, nw, &above[a..b], ne));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

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
