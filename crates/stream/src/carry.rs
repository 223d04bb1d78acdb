//! The carry merge — the labeler's one merge stage.
//!
//! The labeler ([`crate::StripLabeler`]) applies PAREMSP's structure —
//! disjoint chunk scans plus one boundary merge — to a single *carried*
//! row: everything a scanned band (or tile row) contributes after its own
//! scan is settled here, against
//! the open-component state carried from the previous one. [`CarryState`]
//! owns that state (the carry row, one [`Accum`] per open component, the
//! next stream id, the row, unit and finalized counts and the peak
//! residency) and runs, per band:
//!
//! 1. the **first-line fold** — the band's first line is the only part
//!    of its partial accumulators the scan could not build (its upper
//!    neighbours are the carry row), so its tile-local runs are folded in
//!    here ([`Accum::run`], north/nw/ne read from the carry row) in
//!    O(width);
//! 2. the **carry seam** between the carry row and the band's first line,
//!    one sequential pass over the scan's stitched store;
//! 3. the **per-label fold** — carried accumulators onto their (possibly
//!    merged) roots, replaying every carried-id merge, then each used
//!    label's partial onto its root: O(labels), never O(pixels);
//! 4. **fresh ids** for new components, in raster order of their anchors;
//! 5. **compaction** of the components still open on the band's last line
//!    to active ids `1..=k`, which rebuilds the carry row;
//! 6. **emission** of every closed component, ascending id.
//!
//! A degenerate unit (zero height or zero width) is only counted.
//! [`CarryState::finish`] drains the components still open at the end of
//! the stream. The input is the [`ScannedRow`] of the shared scan stage
//! ([`crate::scan`]) — one tile for a sequential strip band, several
//! column tiles otherwise; the first and last label lines are borrowed
//! from a one-tile row and assembled in O(width) from several tiles, each
//! tile's label shift applied — so
//! the labeler keeps only its label emission, through the
//! [`MergedBand`] this stage returns.

use std::borrow::Cow;
use std::ops::Range;

use ccl_core::scan::{merge_seam, Foldable as _};
use ccl_unionfind::{RemSP, UnionFind};

use crate::analysis::{Accum, ComponentId, ComponentSink};
use crate::scan::{fold_runs, shifted, ScannedRow};

/// Open-component state carried between bands: the carry row, the open
/// accumulators and the id counters. See the module docs.
#[derive(Debug)]
pub struct CarryState {
    width: usize,
    /// Labels (active ids `1..=k`, 0 = background) of the last line of
    /// the previous band; empty before the first band.
    carry: Vec<u32>,
    /// Accumulators of the open components, indexed by active id (slot 0
    /// unused).
    active: Vec<Accum>,
    next_gid: u64,
    /// Pixel rows merged so far, degenerate units included.
    rows: usize,
    /// Units with at least one row merged so far.
    units: usize,
    finalized: u64,
    provisional_labels: u64,
    peak_resident_rows: usize,
}

/// A merged band's tile labels and their label → stream-id resolution,
/// for engines that emit labels (strips or tiles) after the merge.
pub struct MergedBand {
    rows: usize,
    spans: Vec<Range<usize>>,
    labels: Vec<Vec<u32>>,
    shifts: Vec<u32>,
    ids: StreamIds,
    merges: Vec<(ComponentId, ComponentId)>,
}

/// Provisional label → stream id, through the merged equivalences.
struct StreamIds {
    uf: RemSP,
    root_of: Vec<u32>,
    acc: Vec<Accum>,
}

impl StreamIds {
    /// Stream id of row label `label` (0 for background).
    #[inline]
    fn gid(&mut self, label: u32) -> ComponentId {
        if label == 0 {
            return 0;
        }
        let root = find_cached(&mut self.uf, &mut self.root_of, label);
        self.acc[root as usize].gid
    }
}

/// Memoized root of `x`: `cache` holds one slot per label (`u32::MAX` =
/// unresolved). Callers that resolve *before* a late seam must not reuse
/// the same cache after it.
#[inline]
fn find_cached(uf: &mut RemSP, cache: &mut [u32], x: u32) -> u32 {
    if cache[x as usize] == u32::MAX {
        cache[x as usize] = uf.find(x);
    }
    cache[x as usize]
}

impl MergedBand {
    /// Carried ids that turned out to be one component in this band, as
    /// ascending `(kept, absorbed)` pairs.
    pub fn merges(&self) -> &[(ComponentId, ComponentId)] {
        &self.merges
    }

    /// Column spans of the band's tiles, left to right.
    pub fn tile_spans(&self) -> &[Range<usize>] {
        &self.spans
    }

    /// Stream ids of tile `t`'s pixels, row-major within the tile.
    pub fn tile_gids(&mut self, t: usize) -> Vec<ComponentId> {
        let (ids, shift) = (&mut self.ids, self.shifts[t]);
        self.labels[t]
            .iter()
            .map(|&l| ids.gid(shifted(l, shift)))
            .collect()
    }

    /// Stream ids of the whole band, row-major across every tile.
    pub fn gids(&mut self) -> Vec<ComponentId> {
        let width = self.spans.last().map_or(0, |s| s.end);
        let mut out = Vec::with_capacity(self.rows * width);
        for r in 0..self.rows {
            let row = line(&self.labels, &self.spans, &self.shifts, r);
            out.extend(row.iter().map(|&l| self.ids.gid(l)));
        }
        out
    }
}

impl CarryState {
    /// Empty state for a stream of the given width.
    pub fn new(width: usize) -> Self {
        CarryState {
            width,
            carry: Vec::new(),
            active: vec![Accum::EMPTY],
            next_gid: 1,
            rows: 0,
            units: 0,
            finalized: 0,
            provisional_labels: 0,
            peak_resident_rows: 0,
        }
    }

    /// Stream width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Pixel rows merged so far: the next unit's first global row.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Units with at least one row merged so far.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Components currently open (touching the carry row).
    pub fn open_components(&self) -> usize {
        self.active.len() - 1
    }

    /// Components emitted so far.
    pub fn finalized_components(&self) -> u64 {
        self.finalized
    }

    /// Provisional labels the scans allocated so far, carried-id slots
    /// excluded: the size of the label space the bands used.
    pub fn provisional_labels(&self) -> u64 {
        self.provisional_labels
    }

    /// Maximum pixel rows resident so far: the tallest band plus the
    /// carry row (the pipelined driver loop counts its own two-band
    /// residency instead).
    pub fn peak_resident_rows(&self) -> usize {
        self.peak_resident_rows
    }

    /// Merges one scanned band against the carry row, emits every
    /// component that closed and rebuilds the carry (steps 1–6 of the
    /// module docs). A degenerate band is only counted: `None`.
    pub fn merge(
        &mut self,
        band: ScannedRow,
        components: &mut dyn ComponentSink,
    ) -> Option<MergedBand> {
        self.rows += band.rows;
        self.units += usize::from(band.rows > 0);
        if band.labels.is_empty() {
            return None;
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
        } = band;
        let first = line(&labels, &spans, &shifts, 0);
        let last = line(&labels, &spans, &shifts, rows - 1);
        let (first, last) = (&*first, &*last);
        debug_assert_eq!(first.len(), self.width);
        debug_assert_eq!(last.len(), self.width);
        self.peak_resident_rows = self
            .peak_resident_rows
            .max(rows + usize::from(!self.carry.is_empty()));
        let n_carry = self.open_components() as u32;
        self.provisional_labels += u64::from(used.end - used.start);

        // The first line's runs (labels double as the foreground mask):
        // their upper neighbours are the carry row, which the scan stage
        // never reads. The first band's row above is background.
        let fg = |row: &[u32]| -> Vec<u8> { row.iter().map(|&l| u8::from(l != 0)).collect() };
        let (first_fg, mut above) = (fg(first), fg(&self.carry));
        above.resize(self.width, 0);
        for span in &spans {
            fold_runs(r0, &first_fg, &above, span, &first[span.clone()], &mut acc);
        }
        if !self.carry.is_empty() {
            merge_seam(&self.carry, first, &mut uf);
        }

        // After this block `acc[root]` holds the complete accumulator of
        // every component with a pixel in the band (fresh ones still gid
        // 0), `touched` lists the occupied roots, and `merges` the
        // carried-id pairs that turned out to be one component.
        let mut touched: Vec<u32> = Vec::new();
        let mut merges: Vec<(ComponentId, ComponentId)> = Vec::new();
        fold_carried(
            &mut uf,
            &self.active,
            n_carry,
            &mut acc,
            &mut touched,
            &mut merges,
        );
        let mut root_of: Vec<u32> = vec![u32::MAX; uf.len()];
        for l in used {
            // every label is created at a tile-local run start, so the
            // scan (lines 1..) and the first-line fold gave it a partial
            debug_assert!(!acc[l as usize].is_empty(), "label {l} has no pixel");
            let root = uf.find(l);
            root_of[l as usize] = root;
            if root == l {
                touched.push(l);
            } else {
                let p = std::mem::replace(&mut acc[l as usize], Accum::EMPTY);
                acc[root as usize].fold(&p);
            }
        }

        // Fresh ids in raster order of each new component's first pixel
        // — its anchor, unique per component.
        let mut fresh: Vec<((usize, usize), u32)> = touched
            .iter()
            .filter(|&&root| acc[root as usize].gid == 0)
            .map(|&root| (acc[root as usize].anchor, root))
            .collect();
        fresh.sort_unstable();
        for &(_, root) in &fresh {
            acc[root as usize].gid = self.next_gid;
            self.next_gid += 1;
        }

        // Components with a pixel on the band's last line stay open:
        // compact them to active ids 1..=k (order of first occurrence on
        // the line) and rebuild the carry row. Everything else has closed
        // — no later row can reach it. The old carry row and accumulators
        // are dead after the fold, so both are rebuilt in place: a fresh
        // allocation that outlives the band would sit above the band's
        // large partial table in the heap and keep its pages resident.
        self.active.truncate(1);
        self.carry.clear();
        self.carry.resize(self.width, 0);
        let mut survivor_id: Vec<u32> = vec![0; root_of.len()];
        for (slot, &l) in self.carry.iter_mut().zip(last) {
            if l == 0 {
                continue;
            }
            let root = find_cached(&mut uf, &mut root_of, l) as usize;
            if survivor_id[root] == 0 {
                self.active.push(acc[root]);
                survivor_id[root] = (self.active.len() - 1) as u32;
            }
            *slot = survivor_id[root];
        }
        let closed: Vec<Accum> = touched
            .iter()
            .filter(|&&root| survivor_id[root as usize] == 0)
            .map(|&root| acc[root as usize])
            .collect();
        self.emit(closed, components);

        merges.sort_unstable();
        Some(MergedBand {
            rows,
            spans,
            labels,
            shifts,
            ids: StreamIds { uf, root_of, acc },
            merges,
        })
    }

    /// Closes the stream: every still-open component is finalized and
    /// emitted (ascending id).
    pub fn finish<C: ComponentSink + ?Sized>(&mut self, components: &mut C) {
        let remaining: Vec<Accum> = self.active.drain(1..).collect();
        self.emit(remaining, components);
        self.carry.clear();
    }

    /// Emits finalized components in ascending id order.
    fn emit<C: ComponentSink + ?Sized>(&mut self, mut accs: Vec<Accum>, components: &mut C) {
        accs.sort_by_key(|a| a.gid);
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

/// Folds the carried accumulators onto their (possibly merged) roots,
/// recording first-occupancy roots in `touched` and carried-id merge
/// pairs in `merges`. Any set containing a carried id is rooted at a
/// carried id (Rem roots are set minima and carried ids occupy the low
/// slots), so every carried root's slot is empty until this fold.
fn fold_carried(
    uf: &mut RemSP,
    active: &[Accum],
    n_carry: u32,
    acc: &mut [Accum],
    touched: &mut Vec<u32>,
    merges: &mut Vec<(ComponentId, ComponentId)>,
) {
    for id in 1..=n_carry {
        let root = uf.find(id);
        let src = active[id as usize];
        let dst = &mut acc[root as usize];
        if dst.area == 0 {
            *dst = src;
            touched.push(root);
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
