//! Row run-length extraction.
//!
//! The RUN/ARUN family of algorithms (He, Chao & Suzuki — the paper's
//! refs \[37\] and \[43\]) views each image row as a sequence of maximal
//! horizontal *runs* of foreground pixels. This module extracts that
//! representation; the run-based labeling baseline in `ccl-core` consumes
//! it directly.

use std::ops::Range;

use crate::bitmap::BinaryImage;

/// A maximal horizontal run of foreground pixels within one row.
///
/// The run covers columns `start..end` (half-open) of row `row`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Row index.
    pub row: usize,
    /// First column of the run (inclusive).
    pub start: usize,
    /// One past the last column of the run (exclusive).
    pub end: usize,
}

impl Run {
    /// Number of pixels covered by the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the run covers no pixels (never produced by extraction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Whether this run touches `other` under 8-connectivity, assuming the
    /// two runs lie on *adjacent* rows. Under 8-connectivity a run on row r
    /// touches a run on row r±1 when their column spans, each widened by
    /// one pixel, overlap: `start ≤ other.end` and `other.start ≤ end`
    /// (using half-open spans: `start < other.end + 1`).
    #[inline]
    pub fn touches_8(&self, other: &Run) -> bool {
        self.start <= other.end && other.start <= self.end
    }
}

/// Extracts the maximal foreground runs of a single row buffer of 0/1
/// pixels ([`pack_line`], then [`for_each_run`]).
pub fn runs_of_row(row_index: usize, row: &[u8]) -> Vec<Run> {
    let mut words = vec![0; row.len().div_ceil(64)];
    pack_line(row, &mut words);
    let mut out = Vec::new();
    for_each_run(&words, 0..row.len(), |start, end| {
        out.push(Run {
            row: row_index,
            start,
            end,
        })
    });
    out
}

/// Packs a line of 0/1 pixels one bit per pixel: bit `c % 64` of
/// `words[c / 64]` is `line[c]`, and the last word's bits past the line
/// are 0. `words` holds at least `⌈line.len() / 64⌉` words; the ones
/// after that are left alone. Eight pixels go per `u64` load: a multiply
/// gathers the low bit of each of 8 bytes into the product's top byte.
/// A word-aligned sub-line packs into the matching words, so
/// `pack_line(&line[64 * k..], &mut words[k..])` repacks from word `k` on.
pub fn pack_line(line: &[u8], words: &mut [u64]) {
    // bit i of the product's top byte is byte i of `x`, for 0/1 bytes
    let pack = |x: u64| x.wrapping_mul(0x0102_0408_1020_4080) >> 56;
    for (block, word) in line.chunks(64).zip(words.iter_mut()) {
        let mut m = 0;
        let mut bytes = block.chunks_exact(8);
        for (k, eight) in bytes.by_ref().enumerate() {
            m |= pack(u64::from_le_bytes(eight.try_into().expect("8-byte chunk"))) << (8 * k);
        }
        let tail = bytes.remainder();
        if !tail.is_empty() {
            let mut eight = [0u8; 8];
            eight[..tail.len()].copy_from_slice(tail);
            m |= pack(u64::from_le_bytes(eight)) << (block.len() - tail.len());
        }
        *word = m;
    }
}

/// Calls `f(a, b)` for every run `[a, b)` of the packed line `words`
/// ([`pack_line`]) within the columns `span`, left to right — a maximal
/// stretch of foreground clipped to the span, so a run crossing an edge
/// of the span starts or ends at it. Word-wide: the run edges are the
/// set bits of `m ^ (m << 1)`, so the work per word is one step per run
/// edge rather than one branch per pixel.
#[inline]
pub fn for_each_run(words: &[u64], span: Range<usize>, mut f: impl FnMut(usize, usize)) {
    if span.is_empty() {
        return;
    }
    // `prev`: the pixel left of the word; `start`: the open run's start
    let (mut prev, mut start) = (0u64, 0);
    let (first, last) = (span.start / 64, (span.end - 1) / 64);
    // the empty word after the span ends a run that reaches the span's
    // end, so `f` has one call site
    let padded = words[first..=last].iter().chain(&[0]);
    for (k, &word) in (first..).zip(padded) {
        let mut m = word;
        if k == first {
            m &= u64::MAX << (span.start % 64);
        }
        if k == last {
            m &= u64::MAX >> (63 - (span.end - 1) % 64);
        }
        let mut edges = m ^ ((m << 1) | prev);
        while edges != 0 {
            let p = edges.trailing_zeros() as usize;
            edges &= edges - 1;
            if (m >> p) & 1 == 1 {
                start = 64 * k + p;
            } else {
                f(start, 64 * k + p);
            }
        }
        prev = m >> 63;
    }
}

/// A run-length representation of a whole binary image: per-row run lists
/// plus a flat index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunImage {
    width: usize,
    height: usize,
    /// All runs in raster order.
    runs: Vec<Run>,
    /// `row_offsets[r]..row_offsets[r+1]` indexes the runs of row `r`.
    row_offsets: Vec<usize>,
}

impl RunImage {
    /// Builds the run representation of `img`.
    pub fn from_binary(img: &BinaryImage) -> Self {
        let mut runs = Vec::new();
        let mut row_offsets = Vec::with_capacity(img.height() + 1);
        row_offsets.push(0);
        for r in 0..img.height() {
            runs.extend(runs_of_row(r, img.row(r)));
            row_offsets.push(runs.len());
        }
        RunImage {
            width: img.width(),
            height: img.height(),
            runs,
            row_offsets,
        }
    }

    /// Reconstructs the dense binary image.
    pub fn to_binary(&self) -> BinaryImage {
        let mut img = BinaryImage::zeros(self.width, self.height);
        for run in &self.runs {
            for c in run.start..run.end {
                img.set(run.row, c, true);
            }
        }
        img
    }

    /// Image width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// All runs in raster order.
    #[inline]
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The runs of row `r`.
    #[inline]
    pub fn row_runs(&self, r: usize) -> &[Run] {
        &self.runs[self.row_offsets[r]..self.row_offsets[r + 1]]
    }

    /// Global index range of the runs of row `r` (into [`Self::runs`]).
    #[inline]
    pub fn row_run_range(&self, r: usize) -> std::ops::Range<usize> {
        self.row_offsets[r]..self.row_offsets[r + 1]
    }

    /// Total number of runs.
    #[inline]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total number of foreground pixels.
    pub fn foreground(&self) -> usize {
        self.runs.iter().map(Run::len).sum()
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
            let mut words = vec![u64::MAX; line.len().div_ceil(64) + 1];
            pack_line(line, &mut words);
            assert_eq!(
                words[words.len() - 1],
                u64::MAX,
                "{line:?}: words past the line"
            );
            for (c, &p) in line.iter().enumerate() {
                assert_eq!((words[c / 64] >> (c % 64)) & 1, u64::from(p), "{line:?}");
            }
            if line.len() % 64 != 0 {
                let padding = words[line.len() / 64] >> (line.len() % 64);
                assert_eq!(padding, 0, "{line:?}: padding bits");
            }
            // every sub-span: runs clipped to its edges
            let n = line.len();
            let spans = [0..n, n / 3..n, 0..n - n / 5, n / 4..n - n / 4, n / 2..n / 2];
            for span in spans {
                let mut runs = Vec::new();
                for_each_run(&words, span.clone(), |a, b| runs.push((a, b)));
                let clipped = naive_runs(&line[span.clone()])
                    .into_iter()
                    .map(|(a, b)| (span.start + a, span.start + b))
                    .collect::<Vec<_>>();
                assert_eq!(runs, clipped, "{line:?}, span {span:?}");
            }
        }
    }

    #[test]
    fn runs_of_simple_row() {
        let runs = runs_of_row(3, &[1, 1, 0, 1, 0, 0, 1, 1, 1]);
        assert_eq!(
            runs,
            vec![
                Run {
                    row: 3,
                    start: 0,
                    end: 2
                },
                Run {
                    row: 3,
                    start: 3,
                    end: 4
                },
                Run {
                    row: 3,
                    start: 6,
                    end: 9
                },
            ]
        );
        assert_eq!(runs.iter().map(Run::len).sum::<usize>(), 6);
    }

    #[test]
    fn runs_of_empty_and_full_rows() {
        assert!(runs_of_row(0, &[0, 0, 0]).is_empty());
        assert_eq!(
            runs_of_row(0, &[1, 1, 1]),
            vec![Run {
                row: 0,
                start: 0,
                end: 3
            }]
        );
        assert!(runs_of_row(0, &[]).is_empty());
    }

    #[test]
    fn touches_8_includes_diagonal() {
        let a = Run {
            row: 0,
            start: 0,
            end: 2,
        }; // cols 0..1
        let b = Run {
            row: 1,
            start: 2,
            end: 4,
        }; // cols 2..3 — diagonal contact
        assert!(a.touches_8(&b));
        assert!(b.touches_8(&a));
        let c = Run {
            row: 1,
            start: 3,
            end: 5,
        }; // gap of one column
        assert!(!a.touches_8(&c));
    }

    #[test]
    fn run_image_round_trip() {
        let img = BinaryImage::parse(
            "##.#.
             .....
             #####
             #.#.#",
        );
        let ri = RunImage::from_binary(&img);
        assert_eq!(ri.to_binary(), img);
        assert_eq!(ri.foreground(), img.count_foreground());
        assert_eq!(ri.row_runs(1).len(), 0);
        assert_eq!(ri.row_runs(2).len(), 1);
        assert_eq!(ri.row_runs(3).len(), 3);
    }

    #[test]
    fn run_ranges_partition_all_runs() {
        let img = BinaryImage::parse("#.# .#. #.#");
        let ri = RunImage::from_binary(&img);
        let mut total = 0;
        for r in 0..ri.height() {
            total += ri.row_run_range(r).len();
        }
        assert_eq!(total, ri.run_count());
        assert_eq!(ri.run_count(), 5);
    }
}
