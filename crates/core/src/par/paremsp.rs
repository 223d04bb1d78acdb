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
//!    Rem's algorithm) on its own row chunk with a disjoint provisional
//!    label range. Labels live in per-chunk `&mut` slices split out of one
//!    buffer; equivalences live in the shared [`ConcurrentParents`] array,
//!    which is contention-free in this phase because ranges are disjoint.
//! 2. **Boundary merge** — for every chunk boundary row `r`, the labels of
//!    row `r` are merged with their neighbours in row `r-1` (Algorithm 7
//!    lines 10–20) using a parallel merger: the lock-guarded MERGER of
//!    Algorithm 8 or its CAS variant.
//! 3. **Flatten** — sparse FLATTEN over the shared label space
//!    (sequential per the paper — it is O(label slots) and, as Figure 5
//!    shows, negligible next to the scan; a parallel extension is
//!    available via [`ParemspConfig::parallel_flatten`]).
//! 4. **Relabel** — every pixel's provisional label is replaced by its
//!    final label, in parallel over the same chunks.

use std::time::{Duration, Instant};

use ccl_image::BinaryImage;
use ccl_unionfind::par::{CasMerger, ConcurrentMerger, ConcurrentParents, LockedMerger};
use ccl_unionfind::EquivalenceStore;

use crate::label::LabelImage;
use crate::scan::{merge_seam, scan_two_line};

use super::partition::{partition_rows, total_label_slots};

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
    /// Run the FLATTEN phase in parallel too (extension beyond the paper,
    /// which flattens sequentially; see the `ablation_flatten` bench for
    /// when it pays off). Final labels are unchanged either way.
    pub parallel_flatten: bool,
}

impl ParemspConfig {
    /// Config with the given thread count and default merger.
    pub fn with_threads(threads: usize) -> Self {
        ParemspConfig {
            threads,
            merger: MergerKind::default(),
            lock_stripes: None,
            parallel_flatten: false,
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
    /// Phase 2: boundary merging (Fig. 5b measures scan + merge).
    pub merge: Duration,
    /// Phase 3: sparse FLATTEN.
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
            run(image, cfg.threads, &merger, cfg.parallel_flatten)
        }
        MergerKind::Cas => run(image, cfg.threads, &CasMerger::new(), cfg.parallel_flatten),
    }
}

fn run<M: ConcurrentMerger>(
    image: &BinaryImage,
    threads: usize,
    merger: &M,
    parallel_flatten: bool,
) -> (LabelImage, PhaseTimings) {
    let (w, h) = (image.width(), image.height());
    let mut timings = PhaseTimings::default();
    let chunks = partition_rows(h, w, threads.max(1));
    let mut labels = vec![0u32; w * h];
    if chunks.is_empty() || w == 0 {
        return (LabelImage::from_raw(w, h, labels, 0), timings);
    }
    let mut parents = ConcurrentParents::new(total_label_slots(&chunks));

    // Phase 1: local scans over disjoint row chunks and label ranges.
    // Each task reports its used label range end so the flatten phase can
    // skip the unused gaps.
    let t0 = Instant::now();
    let mut used_ends: Vec<u32> = chunks.iter().map(|c| c.label_offset).collect();
    rayon::scope(|s| {
        let mut rest: &mut [u32] = &mut labels;
        for (chunk, used_end) in chunks.iter().zip(used_ends.iter_mut()) {
            let (mine, tail) = rest.split_at_mut(chunk.num_rows() * w);
            rest = tail;
            let parents = &parents;
            s.spawn(move |_| {
                let mut store = parents.chunk_store();
                let next = scan_two_line(
                    image,
                    chunk.rows.clone(),
                    mine,
                    &mut store,
                    chunk.label_offset,
                );
                debug_assert!(
                    next <= chunk.label_offset + chunk.label_capacity,
                    "chunk exceeded its label range"
                );
                *used_end = next;
            });
        }
    });
    timings.scan = t0.elapsed();
    let used_ranges: Vec<(u32, u32)> = chunks
        .iter()
        .zip(&used_ends)
        .map(|(c, &end)| (c.label_offset, end))
        .collect();

    // Phase 2: merge chunk-boundary rows (Algorithm 7 lines 10–20).
    let t0 = Instant::now();
    if chunks.len() > 1 {
        let labels_ref = &labels;
        rayon::scope(|s| {
            for chunk in &chunks[1..] {
                let parents = &parents;
                let r = chunk.rows.start;
                s.spawn(move |_| {
                    merge_boundary_row(labels_ref, w, r, parents, merger);
                });
            }
        });
    }
    timings.merge = t0.elapsed();

    // Phase 3: FLATTEN over the used label ranges (sequential per the
    // paper, or the parallel extension when configured).
    let t0 = Instant::now();
    let num_components = if parallel_flatten {
        parents.flatten_ranges_parallel(&used_ranges)
    } else {
        parents.flatten_ranges(&used_ranges)
    };
    timings.flatten = t0.elapsed();

    // Phase 4: final labeling, parallel over the same chunks.
    let t0 = Instant::now();
    rayon::scope(|s| {
        let mut rest: &mut [u32] = &mut labels;
        for chunk in &chunks {
            let (mine, tail) = rest.split_at_mut(chunk.num_rows() * w);
            rest = tail;
            let parents = &parents;
            s.spawn(move |_| {
                for l in mine {
                    // background slot 0 resolves to 0, no branch needed
                    *l = parents.resolve(*l);
                }
            });
        }
    });
    timings.relabel = t0.elapsed();

    (LabelImage::from_raw(w, h, labels, num_components), timings)
}

/// Adapts a [`ConcurrentMerger`] over a [`ConcurrentParents`] array to the
/// [`EquivalenceStore`] interface, so the shared seam logic
/// ([`merge_seam`]) drives PAREMSP's parallel boundary phase.
///
/// Only `merge` is supported; labels must already be registered by the
/// scan phase.
struct MergerStore<'a, M: ConcurrentMerger> {
    parents: &'a ConcurrentParents,
    merger: &'a M,
}

impl<'a, M: ConcurrentMerger> MergerStore<'a, M> {
    /// Wraps the shared parent array and a merger implementation.
    fn new(parents: &'a ConcurrentParents, merger: &'a M) -> Self {
        MergerStore { parents, merger }
    }
}

impl<M: ConcurrentMerger> EquivalenceStore for MergerStore<'_, M> {
    fn new_label(&mut self, _label: u32) {
        unreachable!("MergerStore only merges; labels are registered by the scan phase");
    }

    #[inline]
    fn merge(&mut self, x: u32, y: u32) -> u32 {
        self.merger.merge(self.parents, x, y);
        // A common representative (not necessarily the root): x's set now
        // contains y. Callers of the merge phase ignore the return value.
        x
    }
}

/// Merges the labels of boundary row `r` with row `r-1` (the last row of
/// the previous chunk) — Algorithm 7 lines 13–20, shared with the
/// sequential consumers through [`merge_seam`].
fn merge_boundary_row<M: ConcurrentMerger>(
    labels: &[u32],
    w: usize,
    r: usize,
    parents: &ConcurrentParents,
    merger: &M,
) {
    debug_assert!(r > 0);
    let cur = r * w;
    let up = (r - 1) * w;
    let mut store = MergerStore::new(parents, merger);
    merge_seam(&labels[up..up + w], &labels[cur..cur + w], &mut store);
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
                parallel_flatten: false,
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
    fn parallel_flatten_extension_matches() {
        let img = pseudo_random_image(120, 90, 55, 17);
        let seq = aremsp(&img);
        for threads in [2, 6, 24] {
            let cfg = ParemspConfig {
                parallel_flatten: true,
                ..ParemspConfig::with_threads(threads)
            };
            let (out, _) = paremsp_with(&img, &cfg);
            assert_eq!(out, seq, "{threads} threads");
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
        assert!(!cfg.parallel_flatten);
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
