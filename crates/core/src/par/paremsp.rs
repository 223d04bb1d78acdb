//! PAREMSP — the paper's Algorithm 7.
//!
//! Parallel phases run as tasks on rayon's persistent global pool, with
//! concurrency bounded by the number of chunk tasks — the same execution
//! model as the paper's OpenMP runtime (a worker pool that outlives each
//! parallel region). Spawning OS threads per call instead costs about
//! 25 µs per thread (an empty 2-task region: about 50 µs with spawned
//! threads, about 4 µs on the pool, 2-vCPU x86-64 VM) in each of the
//! three parallel phases: several times the whole sequential labeling of
//! a 64×64 image (about 15 µs).
//!
//! Four phases, each timed separately so Figures 5a ("local") and 5b
//! ("local + merge") can be reproduced:
//!
//! 1. **Local scan** — every thread runs the AREMSP scan (Algorithm 6 +
//!    Rem's algorithm) on its own row chunk into a private [`RemSP`]
//!    whose labels start at 1. Labels live in per-chunk `&mut` slices
//!    split out of one buffer; no shared state is touched.
//! 2. **Boundary merge** — the chunk stores are first stitched into one
//!    dense [`ConcurrentParents`] array in O(labels): chunk `i` gets a
//!    base `b_i`, its background sits at slot `b_i` with parent 0, and
//!    its local label `l` at `b_i + l` with parents shifted by `b_i`, so
//!    the table has `1 + labels + (chunks − 1)` slots and Rem's
//!    `p[x] ≤ x` holds. Then, for every chunk boundary row `r`, the labels
//!    of row `r` are merged with their neighbours in row `r-1` (Algorithm
//!    7 lines 10–20), read through shifted copies of the two rows, using
//!    a parallel merger: the lock-guarded MERGER of Algorithm 8 or its CAS
//!    variant. The stitch is timed here, so phase 1 times only the local
//!    scans.
//! 3. **Flatten** — the dense FLATTEN (Algorithm 3) over the stitched
//!    array, sequential per the paper (Algorithm 7 line 22).
//! 4. **Relabel** — every pixel's local label `l` in chunk `i` becomes
//!    `finals[b_i + l]`, in parallel over the same chunks. Background
//!    reads its chunk's background slot, so the pass has no branch.
//!
//! Numbering follows AREMSP's exactly: the bases ascend with the chunks,
//! so FLATTEN meets each component's root (its smallest label) in the
//! same pair-scan order as the sequential scan.

use std::ops::Range;
use std::time::{Duration, Instant};

use ccl_image::BinaryImage;
use ccl_unionfind::flatten::flatten_monotone;
use ccl_unionfind::par::{CasMerger, ConcurrentMerger, ConcurrentParents, LockedMerger};
use ccl_unionfind::{EquivalenceStore, RemSP, UnionFind};

use crate::label::LabelImage;
use crate::scan::{max_labels_two_line, merge_seam, scan_two_line, split_spans};

/// Which boundary-merge implementation PAREMSP uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergerKind {
    /// The paper's Algorithm 8: per-node (striped) locks on root links.
    #[default]
    Locked,
    /// Lock-free variant: every write validated with `compare_exchange`.
    Cas,
}

impl MergerKind {
    /// All variants, in declaration order (for sweeps and CLI help).
    pub const ALL: [MergerKind; 2] = [MergerKind::Locked, MergerKind::Cas];
}

impl std::fmt::Display for MergerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MergerKind::Locked => "locked",
            MergerKind::Cas => "cas",
        })
    }
}

impl std::str::FromStr for MergerKind {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) names (case-insensitive).
    /// The error message enumerates every valid variant, generated from
    /// [`MergerKind::ALL`] so it can never drift from the enum.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "locked" | "lock" => Ok(MergerKind::Locked),
            "cas" => Ok(MergerKind::Cas),
            other => {
                let valid: Vec<String> = MergerKind::ALL.iter().map(ToString::to_string).collect();
                Err(format!(
                    "unknown merger {other:?} (valid values: {})",
                    valid.join(", ")
                ))
            }
        }
    }
}

/// Configuration for [`paremsp_with`].
#[derive(Debug, Clone)]
pub struct ParemspConfig {
    /// Worker thread count (≥ 1). The actual chunk count may be lower for
    /// very short images.
    pub threads: usize,
    /// Boundary-merge implementation.
    pub merger: MergerKind,
    /// Lock stripes for [`MergerKind::Locked`]; `None` = default (2^16).
    pub lock_stripes: Option<usize>,
}

impl ParemspConfig {
    /// Config with the given thread count and default merger.
    pub fn with_threads(threads: usize) -> Self {
        ParemspConfig {
            threads,
            merger: MergerKind::default(),
            lock_stripes: None,
        }
    }

    /// Builder: replaces the boundary-merge implementation.
    pub fn with_merger(mut self, merger: MergerKind) -> Self {
        self.merger = merger;
        self
    }
}

impl Default for ParemspConfig {
    fn default() -> Self {
        Self::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// Wall-clock duration of each PAREMSP phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Phase 1: per-chunk AREMSP scans (the paper's "local" time, Fig. 5a).
    pub scan: Duration,
    /// Phase 2: stitching the chunk stores into one label space, then
    /// boundary merging (Fig. 5b measures scan + merge).
    pub merge: Duration,
    /// Phase 3: dense FLATTEN of the stitched label space.
    pub flatten: Duration,
    /// Phase 4: final labeling pass.
    pub relabel: Duration,
}

impl PhaseTimings {
    /// Scan + merge — the quantity Figure 5b calls "local + merge".
    pub fn local_plus_merge(&self) -> Duration {
        self.scan + self.merge
    }

    /// Total across all four phases.
    pub fn total(&self) -> Duration {
        self.scan + self.merge + self.flatten + self.relabel
    }
}

/// PAREMSP with default configuration at the given thread count.
///
/// ```
/// use ccl_core::par::paremsp;
/// use ccl_image::BinaryImage;
///
/// let img = BinaryImage::parse("##.. ..## #..#");
/// let labels = paremsp(&img, 4);
/// assert_eq!(labels.num_components(), 2); // diagonals connect under 8-conn
/// ```
pub fn paremsp(image: &BinaryImage, threads: usize) -> LabelImage {
    paremsp_with(image, &ParemspConfig::with_threads(threads)).0
}

/// PAREMSP with full configuration; returns the labeling and per-phase
/// timings.
pub fn paremsp_with(image: &BinaryImage, cfg: &ParemspConfig) -> (LabelImage, PhaseTimings) {
    match cfg.merger {
        MergerKind::Locked => {
            let merger = match cfg.lock_stripes {
                Some(s) => LockedMerger::with_stripes(s),
                None => LockedMerger::new(),
            };
            run(image, cfg.threads, &merger)
        }
        MergerKind::Cas => run(image, cfg.threads, &CasMerger::new()),
    }
}

/// Row chunks of Algorithm 7 lines 2–7: at most `threads` near-equal
/// spans of row *pairs*, so every boundary falls on an even row (the
/// two-line scan works in pairs); the last chunk may end on an odd row.
fn row_chunks(h: usize, threads: usize) -> Vec<Range<usize>> {
    split_spans(h.div_ceil(2), threads)
        .into_iter()
        .map(|pairs| 2 * pairs.start..(2 * pairs.end).min(h))
        .collect()
}

fn run<M: ConcurrentMerger>(
    image: &BinaryImage,
    threads: usize,
    merger: &M,
) -> (LabelImage, PhaseTimings) {
    let (w, h) = (image.width(), image.height());
    let mut timings = PhaseTimings::default();
    let chunks = row_chunks(h, threads);
    let mut labels = vec![0u32; w * h];
    if chunks.is_empty() || w == 0 {
        return (LabelImage::from_raw(w, h, labels, 0), timings);
    }

    // Phase 1: local scans, each chunk into its own RemSP (labels from 1).
    // Each store reserves the chunk's worst case, as `two_pass_with` does;
    // untouched capacity is never faulted in.
    let t0 = Instant::now();
    let mut stores: Vec<RemSP> = chunks
        .iter()
        .map(|rows| RemSP::with_capacity(1 + max_labels_two_line(rows.len(), w)))
        .collect();
    rayon::scope(|s| {
        let mut rest: &mut [u32] = &mut labels;
        for (rows, store) in chunks.iter().zip(stores.iter_mut()) {
            let (mine, tail) = rest.split_at_mut(rows.len() * w);
            rest = tail;
            s.spawn(move |_| {
                store.new_label(0);
                scan_two_line(image, rows.clone(), 0..w, mine, store, 1);
            });
        }
    });
    timings.scan = t0.elapsed();

    // Phase 2: stitch the chunk stores into one dense label space, then
    // merge the chunk-boundary rows (Algorithm 7 lines 10–20).
    let t0 = Instant::now();
    let mut bases = Vec::with_capacity(chunks.len());
    let mut stitched = Vec::with_capacity(stores.iter().map(RemSP::len).sum());
    for store in &stores {
        let base = u32::try_from(stitched.len()).expect("stitched label space fits in u32");
        bases.push(base);
        stitched.push(0); // this chunk's background slot
        stitched.extend(store.parents()[1..].iter().map(|&q| q + base));
    }
    drop(stores);
    let parents = ConcurrentParents::from_parents(stitched);
    if chunks.len() > 1 {
        let labels = &labels;
        let parents = &parents;
        rayon::scope(|s| {
            for (i, rows) in chunks.iter().enumerate().skip(1) {
                let (up_base, cur_base) = (bases[i - 1], bases[i]);
                let cur = rows.start * w;
                s.spawn(move |_| {
                    let up = shifted_row(&labels[cur - w..cur], up_base);
                    let cur = shifted_row(&labels[cur..cur + w], cur_base);
                    merge_seam(&up, &cur, &mut MergerStore { parents, merger });
                });
            }
        });
    }
    timings.merge = t0.elapsed();

    // Phase 3: FLATTEN (sequential per the paper).
    let t0 = Instant::now();
    let mut finals = parents.into_parents();
    let num_components = flatten_monotone(&mut finals);
    timings.flatten = t0.elapsed();

    // Phase 4: final labeling, parallel over the same chunks.
    let t0 = Instant::now();
    rayon::scope(|s| {
        let mut rest: &mut [u32] = &mut labels;
        for (rows, &base) in chunks.iter().zip(&bases) {
            let (mine, tail) = rest.split_at_mut(rows.len() * w);
            rest = tail;
            let finals = &finals[base as usize..];
            s.spawn(move |_| {
                for l in mine {
                    // local background 0 reads the chunk's background slot
                    *l = finals[*l as usize];
                }
            });
        }
    });
    timings.relabel = t0.elapsed();

    (LabelImage::from_raw(w, h, labels, num_components), timings)
}

/// A boundary row's local labels moved into the stitched label space:
/// foreground `l` becomes `base + l`, background stays 0.
fn shifted_row(row: &[u32], base: u32) -> Vec<u32> {
    row.iter()
        .map(|&l| if l == 0 { 0 } else { base + l })
        .collect()
}

/// Adapts a [`ConcurrentMerger`] over a [`ConcurrentParents`] array to the
/// [`EquivalenceStore`] interface, so the shared seam logic
/// ([`merge_seam`]) drives PAREMSP's parallel boundary phase.
///
/// Only `merge` is supported; every label is already in the stitched
/// array.
struct MergerStore<'a, M: ConcurrentMerger> {
    parents: &'a ConcurrentParents,
    merger: &'a M,
}

impl<M: ConcurrentMerger> EquivalenceStore for MergerStore<'_, M> {
    fn new_label(&mut self, _label: u32) {
        unreachable!("MergerStore only merges; labels come from the stitch");
    }

    #[inline]
    fn merge(&mut self, x: u32, y: u32) -> u32 {
        self.merger.merge(self.parents, x, y);
        // A common representative (not necessarily the root): x's set now
        // contains y. Callers of the merge phase ignore the return value.
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::aremsp;

    fn pseudo_random_image(w: usize, h: usize, density_pct: u64, seed: u64) -> BinaryImage {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        BinaryImage::from_fn(w, h, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 100 < density_pct
        })
    }

    /// Both mergers at 1–8 threads, each compared with AREMSP.
    fn assert_matches_aremsp(img: &BinaryImage, what: &str) {
        let seq = aremsp(img);
        for merger in MergerKind::ALL {
            for threads in 1..=8 {
                let cfg = ParemspConfig::with_threads(threads).with_merger(merger);
                let (out, _) = paremsp_with(img, &cfg);
                assert_eq!(out, seq, "{what}: {merger}, {threads} threads");
            }
        }
    }

    #[test]
    fn row_chunks_cover_exactly_on_even_boundaries() {
        for h in 0..40 {
            for threads in 1..10 {
                let chunks = row_chunks(h, threads);
                assert_eq!(chunks.is_empty(), h == 0);
                assert!(chunks.len() <= threads);
                assert_eq!(chunks.first().map_or(0, |c| c.start), 0);
                assert_eq!(chunks.last().map_or(0, |c| c.end), h);
                for pair in chunks.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                    assert_eq!(pair[1].start % 2, 0, "h={h} threads={threads}");
                }
                assert!(chunks.iter().all(|c| !c.is_empty()));
            }
        }
        // 50 pairs over 3 chunks: 17/17/16 pairs
        assert_eq!(row_chunks(100, 3), vec![0..34, 34..68, 68..100]);
        assert_eq!(row_chunks(9, 2), vec![0..6, 6..9]);
    }

    #[test]
    fn blank_middle_chunks_contribute_only_background() {
        // Foreground only in the first and last row pairs, so at 8 threads
        // (8-row chunks) the six middle chunks hold no label at all.
        let img = BinaryImage::from_fn(37, 64, |r, c| !(2..62).contains(&r) && (r + c) % 3 != 0);
        assert_matches_aremsp(&img, "blank middle");
        assert_matches_aremsp(&BinaryImage::zeros(37, 64), "all background");
    }

    #[test]
    fn all_foreground_is_one_component() {
        let img = BinaryImage::from_fn(23, 17, |_, _| true);
        assert_eq!(aremsp(&img).num_components(), 1);
        assert_matches_aremsp(&img, "all foreground");
    }

    #[test]
    fn matches_sequential_on_fixtures() {
        for pic in [
            "####
             ####
             ####
             ####",
            "#.#.
             .#.#
             #.#.
             .#.#",
            "#..#
             ....
             #..#
             ....",
        ] {
            let img = BinaryImage::parse(pic);
            let seq = aremsp(&img);
            for threads in 1..=4 {
                assert_eq!(paremsp(&img, threads), seq, "{pic} with {threads} threads");
            }
        }
    }

    #[test]
    fn matches_sequential_across_thread_counts_and_densities() {
        for &density in &[5u64, 30, 50, 70, 95] {
            let img = pseudo_random_image(64, 48, density, density);
            let seq = aremsp(&img);
            for threads in [1, 2, 3, 5, 8, 16] {
                let par = paremsp(&img, threads);
                assert_eq!(par, seq, "density {density}%, {threads} threads");
            }
        }
    }

    #[test]
    fn cas_and_locked_mergers_agree() {
        let img = pseudo_random_image(80, 60, 60, 42);
        let seq = aremsp(&img);
        for merger in [MergerKind::Locked, MergerKind::Cas] {
            let cfg = ParemspConfig {
                threads: 6,
                merger,
                lock_stripes: Some(8), // tiny stripe count: force contention
            };
            let (li, timings) = paremsp_with(&img, &cfg);
            assert_eq!(li, seq, "{merger:?}");
            assert!(timings.total() >= timings.local_plus_merge());
        }
    }

    #[test]
    fn component_spanning_all_chunks() {
        // a single vertical line crosses every chunk boundary
        let img = BinaryImage::from_fn(9, 64, |_, c| c == 4);
        for threads in [1, 2, 4, 8] {
            let li = paremsp(&img, threads);
            assert_eq!(li.num_components(), 1, "{threads} threads");
        }
    }

    #[test]
    fn boundary_diagonals_merge_without_b() {
        // zig-zag crossing the boundary only diagonally
        let img = BinaryImage::from_fn(8, 8, |r, c| (r + c) % 2 == 0);
        let seq = aremsp(&img);
        assert_eq!(seq.num_components(), 1);
        for threads in [2, 4] {
            assert_eq!(paremsp(&img, threads), seq);
        }
    }

    #[test]
    fn empty_and_tiny_images() {
        for (w, h) in [(0, 0), (0, 5), (5, 0), (1, 1), (3, 1), (1, 3)] {
            let img = pseudo_random_image(w, h, 50, 7);
            let seq = aremsp(&img);
            for threads in [1, 2, 4] {
                assert_eq!(paremsp(&img, threads), seq, "{w}x{h}, {threads} threads");
            }
        }
    }

    #[test]
    fn odd_heights_with_many_threads() {
        for h in [5, 7, 9, 11, 13] {
            let img = pseudo_random_image(17, h, 45, h as u64);
            let seq = aremsp(&img);
            for threads in [2, 3, 7, 24] {
                assert_eq!(paremsp(&img, threads), seq, "h={h} threads={threads}");
            }
        }
    }

    #[test]
    fn timings_are_populated() {
        let img = pseudo_random_image(128, 128, 50, 3);
        let (_, t) = paremsp_with(&img, &ParemspConfig::with_threads(4));
        assert!(t.total() > Duration::ZERO);
        assert!(t.scan > Duration::ZERO);
    }

    #[test]
    fn merger_kind_display_from_str_round_trip() {
        for kind in MergerKind::ALL {
            let parsed: MergerKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert_eq!("LOCKED".parse::<MergerKind>().unwrap(), MergerKind::Locked);
        assert_eq!("Cas".parse::<MergerKind>().unwrap(), MergerKind::Cas);
        let err = "spinlock".parse::<MergerKind>().unwrap_err();
        for kind in MergerKind::ALL {
            assert!(
                err.contains(&kind.to_string()),
                "error must list {kind}: {err}"
            );
        }
    }

    #[test]
    fn with_merger_builder_sets_only_merger() {
        let cfg = ParemspConfig::with_threads(3).with_merger(MergerKind::Cas);
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.merger, MergerKind::Cas);
        assert!(cfg.lock_stripes.is_none());
    }

    #[test]
    fn stress_repeated_runs_are_deterministic() {
        let img = pseudo_random_image(96, 96, 55, 11);
        let reference = paremsp(&img, 8);
        for _ in 0..10 {
            assert_eq!(paremsp(&img, 8), reference);
        }
    }
}
