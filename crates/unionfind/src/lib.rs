//! # ccl-unionfind
//!
//! Union-find (disjoint-set) structures for the PAREMSP reproduction
//! (Gupta et al., IPPS 2014).
//!
//! Two-pass CCL algorithms record *label equivalences* discovered during
//! the scan phase and resolve them before the labeling pass. The paper's
//! contribution rests on using **REM's union-find with splicing (RemSP)**
//! — the fastest variant in the Patwary–Blair–Manne study (the paper's
//! ref \[40\]) — instead of the structures used by the prior CCLLRPC and
//! ARUN algorithms. This crate implements the full comparison suite:
//!
//! * [`RemSP`] — Rem's algorithm with the splicing (SP) compression, the
//!   paper's Algorithm 2,
//! * [`RankUF`] — array-based link-by-rank with path compression (the
//!   union-find inside CCLLRPC, ref \[36\]); path-halving and path-splitting
//!   compression options are included for the ablation benches,
//! * [`SizeUF`] — link-by-size with path compression,
//! * [`MinUF`] — link-by-minimum-root (keeps the smallest provisional
//!   label as representative, the classic CCL choice),
//! * [`HeEquivalence`] — the `rtable`/`next`/`tail` three-array structure
//!   of He–Chao–Suzuki (refs \[37\], \[43\]) used by the ARUN baseline,
//! * [`par`] — the shared-memory structures for PAREMSP: a lock-guarded
//!   MERGER faithful to the paper's Algorithm 8 and a CAS-only variant.
//!
//! The analysis phase (the paper's FLATTEN, Algorithm 3) lives in
//! [`flatten`]: one pass for monotone forests, which PAREMSP's stitched
//! label space also is, and a generic form for rank- and size-linked ones.
//!
//! ## Element model
//!
//! Elements are `u32` indices created consecutively. CCL reserves element
//! `0` for the background: it is registered up front and never merged, and
//! [`UnionFind::flatten`] keeps it mapped to `0` while assigning the
//! consecutive final labels `1..=k` to the remaining sets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod equivalence;
pub mod flatten;
pub mod par;
pub mod seq;

pub use equivalence::HeEquivalence;
pub use seq::min::MinUF;
pub use seq::rank::{Compression, RankUF};
pub use seq::rem::RemSP;
pub use seq::size::SizeUF;

/// The minimal interface the CCL scan phases need from a label-equivalence
/// backend — shaped exactly like the paper's pseudocode:
/// `p[count] ← count` ([`EquivalenceStore::new_label`]) and
/// `merge(p, x, y)` ([`EquivalenceStore::merge`]).
pub trait EquivalenceStore {
    /// Registers a fresh provisional label. Labels are registered
    /// consecutively (`label == len`).
    fn new_label(&mut self, label: u32);

    /// Merges the equivalence classes of `x` and `y`, returning a common
    /// representative (not necessarily the final root).
    fn merge(&mut self, x: u32, y: u32) -> u32;
}

/// Full sequential union-find interface used by the benchmarks, tests and
/// the analysis phase.
pub trait UnionFind: EquivalenceStore {
    /// An empty structure.
    fn new() -> Self;

    /// An empty structure with room for `cap` elements pre-allocated.
    fn with_capacity(cap: usize) -> Self;

    /// Creates a singleton set, returning its element id (`0, 1, 2, …`).
    fn make_set(&mut self) -> u32;

    /// Returns the representative (root) of `x`'s set. May compress paths.
    fn find(&mut self, x: u32) -> u32;

    /// Unites the sets of `x` and `y`; returns the surviving root.
    fn union(&mut self, x: u32, y: u32) -> u32;

    /// Number of elements created so far.
    fn len(&self) -> usize;

    /// True when no elements exist.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `x` and `y` are currently in the same set.
    fn same(&mut self, x: u32, y: u32) -> bool {
        self.find(x) == self.find(y)
    }

    /// Number of disjoint sets among all created elements.
    fn count_sets(&mut self) -> usize {
        let n = self.len() as u32;
        (0..n).filter(|&x| self.find(x) == x).count()
    }

    /// CCL analysis phase: replaces the internal parent array with a
    /// provisional-label → final-label lookup table. Element 0 (the
    /// reserved background) keeps final label 0; the remaining sets
    /// receive consecutive final labels `1..=k` in order of their smallest
    /// member. Returns `k`, the number of connected components.
    ///
    /// After `flatten`, only [`UnionFind::resolve`] may be used; the
    /// union/find operations are no longer meaningful.
    ///
    /// # Panics
    /// Panics if element 0 was merged with another set (CCL never does).
    fn flatten(&mut self) -> u32;

    /// Post-[`UnionFind::flatten`] lookup of the final label of `x`.
    fn resolve(&self, x: u32) -> u32;
}

/// Cross-variant partition helpers shared by this crate's tests (kept
/// public so `ccl-core` and the integration tests can reuse them).
pub mod testing {
    use super::UnionFind;

    /// Drives a fresh `U` through a scripted sequence: `n` singletons,
    /// then the given unions; returns the canonical partition.
    pub fn partition_of<U: UnionFind>(n: u32, unions: &[(u32, u32)]) -> Vec<u32> {
        let mut uf = U::with_capacity(n as usize);
        for _ in 0..n {
            uf.make_set();
        }
        for &(x, y) in unions {
            uf.union(x, y);
        }
        canonical_partition(&mut uf)
    }

    /// Canonical form of the current partition: each element mapped to the
    /// smallest element of its set.
    pub fn canonical_partition<U: UnionFind>(uf: &mut U) -> Vec<u32> {
        let n = uf.len() as u32;
        let mut smallest = vec![u32::MAX; n as usize];
        for x in 0..n {
            let r = uf.find(x) as usize;
            if smallest[r] == u32::MAX {
                smallest[r] = x; // first visit in ascending order = minimum
            }
        }
        (0..n).map(|x| smallest[uf.find(x) as usize]).collect()
    }
}
