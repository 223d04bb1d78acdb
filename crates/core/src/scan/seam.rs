//! Seam merging — reconnecting two adjacent label buffers.
//!
//! This is the paper's Algorithm 7 lines 13–20, factored out of PAREMSP so
//! that any consumer holding the labels of two adjacent lines can restore
//! 8-connectivity across them: the parallel chunk-boundary MERGER phase
//! (every boundary row in parallel), and the out-of-core scan and carry
//! merge of `ccl-stream`'s out-of-core labeler (one seam per unit against the
//! carried row; vertical seams between horizontally adjacent tiles,
//! walked as strided columns).
//!
//! The lines may come from *different* label buffers — all that matters is
//! that both lines' labels live in one equivalence store. The same logic
//! serves rows and columns: a vertical seam between a left and a right
//! buffer is a row seam on the transposed image, which is exactly what the
//! strided form walks without materializing the transpose.

use std::ops::Range;

use ccl_unionfind::EquivalenceStore;

/// The seam body shared by every entry point: merges element `i` of `cur`
/// with elements `i-1`, `i`, `i+1` of `up` under 8-connectivity, for `i`
/// in `0..len`. The direct neighbour `up(i)` subsumes both diagonals when
/// present; otherwise the two diagonals are merged individually
/// (Algorithm 7 lines 13–20).
#[inline]
fn seam_core<S: EquivalenceStore>(
    up: impl Fn(usize) -> u32,
    cur: impl Fn(usize) -> u32,
    len: usize,
    store: &mut S,
) {
    for c in 0..len {
        let le = cur(c);
        if le == 0 {
            continue;
        }
        let lb = up(c);
        if lb != 0 {
            store.merge(le, lb);
        } else {
            if c > 0 {
                let la = up(c - 1);
                if la != 0 {
                    store.merge(le, la);
                }
            }
            if c + 1 < len {
                let lc = up(c + 1);
                if lc != 0 {
                    store.merge(le, lc);
                }
            }
        }
    }
}

/// Merges the labels of a row (`cur`) with the row directly above it
/// (`up`) under 8-connectivity: for each foreground pixel of `cur`, the
/// vertical neighbour `b` subsumes both diagonals when present; otherwise
/// the two diagonals are merged individually (Algorithm 7 lines 13–20).
///
/// Background pixels hold label 0 and are skipped. The slices may be
/// drawn from different label buffers as long as both label spaces are
/// registered in `store`.
///
/// # Panics
/// Panics when the two rows differ in length.
pub fn merge_seam<S: EquivalenceStore>(up: &[u32], cur: &[u32], store: &mut S) {
    assert_eq!(up.len(), cur.len(), "seam rows differ in width");
    let w = cur.len();
    seam_core(|i| up[i], |i| cur[i], w, store);
}

/// Splits `0..len` into at most `parts` contiguous, non-empty,
/// near-equal spans (the first spans one element longer) — the standard
/// partition for fanning rows, column tiles or a tile run out across
/// workers. Returns no spans when `len` is 0.
pub fn split_spans(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let n = base + usize::from(i < extra);
        out.push(start..start + n);
        start += n;
    }
    out
}

/// The column-capable (strided) seam: element `i` of each line is
/// `line[i * stride]`, so two *vertically adjacent columns* of row-major
/// label buffers — e.g. the right edge of one tile and the left edge of
/// the next — merge without materializing a transpose. Equivalent to
/// transposing both buffers and calling [`merge_seam`] on the resulting
/// rows (property-tested in `tests/proptest_seam.rs`).
///
/// `up` is the earlier line (left column for a vertical seam), `cur` the
/// later one; `len` elements are walked from each. The strides may differ
/// (tiles of different widths).
///
/// # Panics
/// Panics when either slice is too short for `len` elements at its
/// stride, or a stride is 0.
pub fn merge_seam_strided<S: EquivalenceStore>(
    up: &[u32],
    up_stride: usize,
    cur: &[u32],
    cur_stride: usize,
    len: usize,
    store: &mut S,
) {
    assert!(up_stride > 0 && cur_stride > 0, "strides must be positive");
    if len == 0 {
        return;
    }
    assert!(
        up.len() > (len - 1) * up_stride && cur.len() > (len - 1) * cur_stride,
        "strided seam out of bounds"
    );
    seam_core(|i| up[i * up_stride], |i| cur[i * cur_stride], len, store);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccl_unionfind::{RemSP, UnionFind};

    fn store_with(n: u32) -> RemSP {
        let mut s = RemSP::new();
        for l in 0..=n {
            s.new_label(l);
        }
        s
    }

    #[test]
    fn vertical_neighbour_merges() {
        let mut s = store_with(2);
        merge_seam(&[1, 0, 0], &[2, 0, 0], &mut s);
        assert!(s.same(1, 2));
    }

    #[test]
    fn b_subsumes_diagonals() {
        // up = a b c all present: only the vertical merge is issued, the
        // diagonals being already equivalent to b within the up buffer's
        // own scan. Here they are distinct stores' labels, so only (2, b)
        // is merged.
        let mut s = store_with(4);
        merge_seam(&[1, 2, 3], &[0, 4, 0], &mut s);
        assert!(s.same(4, 2));
        assert!(!s.same(4, 1));
        assert!(!s.same(4, 3));
    }

    #[test]
    fn diagonals_merge_when_b_absent() {
        let mut s = store_with(3);
        merge_seam(&[1, 0, 2], &[0, 3, 0], &mut s);
        assert!(s.same(3, 1));
        assert!(s.same(3, 2));
    }

    #[test]
    fn edges_do_not_probe_out_of_bounds() {
        let mut s = store_with(2);
        merge_seam(&[0, 1], &[2, 0], &mut s);
        assert!(s.same(1, 2));
        let mut s = store_with(2);
        merge_seam(&[1, 0], &[0, 2], &mut s);
        assert!(s.same(1, 2));
    }

    #[test]
    fn background_rows_are_noop() {
        let mut s = store_with(2);
        merge_seam(&[0, 0, 0], &[1, 0, 2], &mut s);
        assert!(!s.same(1, 2));
    }

    #[test]
    #[should_panic(expected = "seam rows differ")]
    fn mismatched_widths_panic() {
        let mut s = store_with(1);
        merge_seam(&[0, 0], &[0], &mut s);
    }

    #[test]
    fn strided_column_seam_connects_across_buffers() {
        // Left buffer 2 wide, right buffer 3 wide, 3 elements tall. The
        // left tile's right column [1, 0, 2] meets the right tile's left
        // column [0, 3, 0]: 3 takes both diagonals.
        let left = [0, 1, 0, 0, 0, 2];
        let right = [0, 9, 9, 3, 9, 9, 0, 9, 9];
        let mut s = store_with(9);
        merge_seam_strided(&left[1..], 2, &right, 3, 3, &mut s);
        assert!(s.same(3, 1));
        assert!(s.same(3, 2));
        assert!(!s.same(3, 9));
    }

    #[test]
    fn strided_direct_neighbour_subsumes_diagonals() {
        // column form of `b_subsumes_diagonals`
        let left = [1, 2, 3];
        let right = [0, 4, 0];
        let mut s = store_with(4);
        merge_seam_strided(&left, 1, &right, 1, 3, &mut s);
        assert!(s.same(4, 2));
        assert!(!s.same(4, 1));
        assert!(!s.same(4, 3));
    }

    #[test]
    fn split_spans_cover_exactly_without_empties() {
        assert!(split_spans(0, 4).is_empty());
        assert_eq!(split_spans(3, 8), vec![0..1, 1..2, 2..3]);
        assert_eq!(split_spans(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(split_spans(5, 1), vec![0..5]);
        for len in 0..40 {
            for parts in [1, 2, 3, 7, 64] {
                let spans = split_spans(len, parts);
                assert!(spans.iter().all(|s| !s.is_empty()));
                assert_eq!(spans.iter().map(ExactSizeIterator::len).sum::<usize>(), len);
                for pair in spans.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                }
            }
        }
    }

    #[test]
    fn strided_zero_len_is_noop() {
        let mut s = store_with(1);
        merge_seam_strided(&[], 3, &[], 2, 0, &mut s);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn strided_bounds_are_checked() {
        let mut s = store_with(1);
        merge_seam_strided(&[0, 0], 2, &[0, 0, 0], 2, 2, &mut s);
    }
}
