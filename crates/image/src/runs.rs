//! Row run-length extraction.
//!
//! The RUN/ARUN family of algorithms (He, Chao & Suzuki — the paper's
//! refs \[37\] and \[43\]) views each image row as a sequence of maximal
//! horizontal *runs* of foreground pixels. This module extracts that
//! representation; the run-based labeling baseline in `ccl-core` consumes
//! it directly.

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

    /// Whether this run touches `other` under 4-connectivity (adjacent
    /// rows): spans must overlap directly.
    #[inline]
    pub fn touches_4(&self, other: &Run) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// Extracts the maximal foreground runs of a single row buffer of 0/1
/// pixels ([`for_each_run`]).
pub fn runs_of_row(row_index: usize, row: &[u8]) -> Vec<Run> {
    let mut out = Vec::new();
    for_each_run(row, |start, end| {
        out.push(Run {
            row: row_index,
            start,
            end,
        })
    });
    out
}

/// Calls `f(a, b)` for every run `[a, b)` of `line` — a maximal
/// stretch of foreground in a line of 0/1 pixels — left to right.
/// Word-wide: each 64-pixel block is packed to one bit per pixel (eight
/// pixels per `u64` load), and the run edges are the set bits of
/// `mask ^ (mask << 1)`, so the work per block is one step per run edge
/// rather than one branch per pixel.
pub fn for_each_run(line: &[u8], mut f: impl FnMut(usize, usize)) {
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
            let mut runs = Vec::new();
            for_each_run(line, |a, b| runs.push((a, b)));
            assert_eq!(runs, naive_runs(line), "{line:?}");
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
        assert!(!a.touches_4(&b));
        let c = Run {
            row: 1,
            start: 3,
            end: 5,
        }; // gap of one column
        assert!(!a.touches_8(&c));
    }

    #[test]
    fn touches_4_requires_direct_overlap() {
        let a = Run {
            row: 0,
            start: 0,
            end: 3,
        };
        let b = Run {
            row: 1,
            start: 2,
            end: 5,
        };
        assert!(a.touches_4(&b));
        let c = Run {
            row: 1,
            start: 3,
            end: 5,
        };
        assert!(!a.touches_4(&c));
        assert!(a.touches_8(&c));
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
