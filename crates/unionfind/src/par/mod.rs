//! Shared-memory union-find for PAREMSP (§IV of the paper).
//!
//! The lifecycle of the shared parent array is:
//!
//! 1. **Scan phase** — each thread scans its row chunk into a plain,
//!    private [`RemSP`](crate::RemSP) whose labels start at 1; no shared
//!    state is touched.
//! 2. **Stitch** — after the scan threads join, the chunk stores are
//!    appended into one dense parent array: chunk `i` gets a base `b_i`,
//!    its background sits at slot `b_i` with parent 0, and its local
//!    label `l` at slot `b_i + l` with every parent shifted by `b_i`.
//!    [`ConcurrentParents::from_parents`] wraps that array. Because the
//!    bases ascend with the chunks, `p[x] ≤ x` still holds everywhere.
//! 3. **Boundary merge phase** — threads merge labels across chunks with
//!    a [`ConcurrentMerger`]: either [`locked::LockedMerger`] (the
//!    paper's Algorithm 8, per-node locks) or [`atomic::CasMerger`]
//!    (every write validated with `compare_exchange`).
//! 4. **Analysis phase** — after the merge threads join,
//!    [`ConcurrentParents::into_parents`] hands the plain array back to
//!    the dense FLATTEN, [`flatten_monotone`](crate::flatten::flatten_monotone).
//!
//! ## Memory-ordering notes
//!
//! All atomic accesses use `Relaxed` ordering. The algorithms only need
//! (a) word atomicity and (b) per-location coherence — exactly the
//! assumptions §IV states for the OpenMP original ("memory read/write
//! operations are atomic … issued concurrently … executed in some unknown
//! sequential order"). Rust's `Relaxed` guarantees both. Cross-thread
//! *phase* ordering comes from thread join (stitch → merge → flatten),
//! and the mutex in [`locked::LockedMerger`] orders its critical
//! sections.
//!
//! The Rem invariant `p[x] ≤ x` is preserved by every write either merger
//! issues: a slot is only ever overwritten with a value smaller than a
//! previously observed value of some slot on the walk, all bounded by the
//! slot index (see the proofs in Patwary–Refsnes–Manne, the paper's
//! ref \[38\]). The stress tests below and in `tests/` check the partitions
//! against sequential RemSP over many seeds and thread counts.

pub mod atomic;
pub mod locked;

use std::sync::atomic::{AtomicU32, Ordering};

pub use atomic::CasMerger;
pub use locked::LockedMerger;

/// The shared provisional-label parent array of the boundary merge.
///
/// Slot 0 is the background root. See the module docs for the lifecycle.
pub struct ConcurrentParents {
    slots: Vec<AtomicU32>,
}

impl ConcurrentParents {
    /// Wraps a dense parent array for concurrent merging. Slot 0 must be
    /// the background root, and every parent must satisfy `p[x] ≤ x`
    /// (debug-checked), as Rem's algorithm and both mergers require.
    ///
    /// # Panics
    /// Panics when `parents` is empty or `parents[0] != 0`.
    pub fn from_parents(parents: Vec<u32>) -> Self {
        assert_eq!(
            parents.first(),
            Some(&0),
            "slot 0 must be the background root"
        );
        debug_assert!(
            parents.iter().enumerate().all(|(i, &p)| p as usize <= i),
            "parents violate the monotone invariant"
        );
        ConcurrentParents {
            slots: parents.into_iter().map(AtomicU32::new).collect(),
        }
    }

    /// Unwraps the parent array once every merge thread has joined
    /// (enforced by taking `self`), e.g. for FLATTEN.
    pub fn into_parents(self) -> Vec<u32> {
        self.slots.into_iter().map(AtomicU32::into_inner).collect()
    }

    /// Current parent of `x`.
    #[inline]
    pub fn load(&self, x: u32) -> u32 {
        self.slots[x as usize].load(Ordering::Relaxed)
    }

    /// Unconditional parent write (used by the locked merger; see module
    /// docs for why `Relaxed` suffices).
    #[inline]
    pub(crate) fn store(&self, x: u32, value: u32) {
        self.slots[x as usize].store(value, Ordering::Relaxed);
    }

    /// Validated parent write: succeeds only when the slot still holds
    /// `expected`.
    #[inline]
    pub(crate) fn compare_exchange(&self, x: u32, expected: u32, value: u32) -> bool {
        self.slots[x as usize]
            .compare_exchange(expected, value, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }
}

impl std::fmt::Debug for ConcurrentParents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ConcurrentParents(len={})", self.slots.len())
    }
}

/// Common interface of the boundary-merge implementations.
pub trait ConcurrentMerger: Sync {
    /// Merges the sets of `x` and `y` in the shared parent array. May be
    /// called concurrently from many threads with arbitrary arguments.
    fn merge(&self, parents: &ConcurrentParents, x: u32, y: u32);

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Background plus `n` singleton labels `1..=n`.
    pub(crate) fn fresh(n: u32) -> ConcurrentParents {
        ConcurrentParents::from_parents((0..=n).collect())
    }

    /// Follows `x`'s parents to its root.
    pub(crate) fn chase(p: &ConcurrentParents, mut x: u32) -> u32 {
        while p.load(x) != x {
            x = p.load(x);
        }
        x
    }

    /// Asserts Rem's invariant `p[x] ≤ x` over every slot.
    pub(crate) fn assert_monotone(p: &ConcurrentParents) {
        for x in 0..p.slots.len() as u32 {
            let px = p.load(x);
            assert!(px <= x, "p[{x}] = {px} violates monotonicity");
        }
    }

    #[test]
    fn parents_round_trip() {
        let parents = vec![0, 1, 1, 3, 0];
        let p = ConcurrentParents::from_parents(parents.clone());
        assert_eq!(p.load(2), 1);
        assert_eq!(p.into_parents(), parents);
    }

    #[test]
    #[should_panic(expected = "background")]
    fn empty_parents_rejected() {
        ConcurrentParents::from_parents(Vec::new());
    }

    #[test]
    #[should_panic(expected = "background")]
    fn merged_background_rejected() {
        ConcurrentParents::from_parents(vec![1, 1]);
    }
}
