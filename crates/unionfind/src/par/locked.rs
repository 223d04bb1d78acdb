//! MERGER — the lock-guarded parallel Rem's algorithm, faithful to the
//! paper's Algorithm 8 (from Patwary, Refsnes & Manne, ref \[38\]).
//!
//! The walk is ordinary Rem with splicing; only the *root link* — the one
//! write that commits a union — takes a lock. The thread acquires the
//! lock for the candidate root, re-verifies that the node is still a root
//! (another thread may have linked it meanwhile), performs the link and
//! releases. On verification failure it resumes the walk from the fresh
//! parent values, exactly like lines 12–14 / 23–25 of Algorithm 8.
//! Interior splice writes stay unlocked, as in the original.
//!
//! One deliberate divergence from the pseudocode: Algorithm 8 line 9
//! re-reads `p[rooty]` inside the critical section; we instead store
//! the value `py` that the walk already validated (`py < px = rootx`).
//! Both choices produce a link inside the merged set, but storing the
//! validated value keeps the proof of the monotone invariant
//! (`p[x] ≤ x`) local: a fresh read of `p[rooty]` could — after an
//! unlocked-splice lost update — exceed `rootx`.
//!
//! Locks are striped: node *n* maps to lock `n & (stripes-1)`. The merger
//! holds at most one lock at a time, so striping cannot deadlock; it only
//! trades memory for (rare) false contention. With the default 2^16
//! stripes the lock table costs 2^16 × `size_of::<Mutex<()>>()` bytes:
//! 64 KiB with the real `parking_lot` (a 1-byte mutex), 512 KiB with the
//! `std`-backed shim this workspace builds (8 bytes per stripe). Each
//! `paremsp_with` call builds a fresh table; on a 2-vCPU x86-64 VM that
//! took 14–19 µs of a 1.2 ms two-thread call on a 512×512 text page.

use parking_lot::Mutex;

use super::{ConcurrentMerger, ConcurrentParents};

/// Default number of lock stripes (must be a power of two).
pub const DEFAULT_STRIPES: usize = 1 << 16;

/// The paper's MERGER (Algorithm 8): parallel Rem's union-find with
/// per-node (striped) locks guarding root links.
pub struct LockedMerger {
    locks: Box<[Mutex<()>]>,
    mask: usize,
}

impl LockedMerger {
    /// Creates a merger with [`DEFAULT_STRIPES`] lock stripes.
    pub fn new() -> Self {
        Self::with_stripes(DEFAULT_STRIPES)
    }

    /// Creates a merger with a custom stripe count (rounded up to a power
    /// of two, minimum 1).
    pub fn with_stripes(stripes: usize) -> Self {
        let stripes = stripes.max(1).next_power_of_two();
        let locks = (0..stripes).map(|_| Mutex::new(())).collect();
        LockedMerger {
            locks,
            mask: stripes - 1,
        }
    }

    #[inline]
    fn lock_for(&self, node: u32) -> &Mutex<()> {
        &self.locks[node as usize & self.mask]
    }
}

impl Default for LockedMerger {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentMerger for LockedMerger {
    fn merge(&self, p: &ConcurrentParents, x: u32, y: u32) {
        let mut rootx = x;
        let mut rooty = y;
        loop {
            let px = p.load(rootx);
            let py = p.load(rooty);
            if px == py {
                return;
            }
            if px > py {
                if rootx == px {
                    // Candidate root: commit under the node's lock.
                    let guard = self.lock_for(rootx).lock();
                    let still_root = p.load(rootx) == rootx;
                    if still_root {
                        p.store(rootx, py);
                    }
                    drop(guard);
                    if still_root {
                        return;
                    }
                    // Lost the race: re-read and continue the walk.
                } else {
                    // Unlocked splice (Algorithm 8 line 14).
                    p.store(rootx, py);
                    rootx = px;
                }
            } else {
                if rooty == py {
                    let guard = self.lock_for(rooty).lock();
                    let still_root = p.load(rooty) == rooty;
                    if still_root {
                        p.store(rooty, px);
                    }
                    drop(guard);
                    if still_root {
                        return;
                    }
                } else {
                    p.store(rooty, px);
                    rooty = py;
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "locked"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::tests::{assert_monotone, chase, fresh};

    #[test]
    fn stripes_round_to_power_of_two() {
        assert_eq!(LockedMerger::with_stripes(3).locks.len(), 4);
        assert_eq!(LockedMerger::with_stripes(0).locks.len(), 1);
        assert_eq!(LockedMerger::with_stripes(16).locks.len(), 16);
    }

    #[test]
    fn single_threaded_merges_match_rem() {
        let p = fresh(15);
        let m = LockedMerger::with_stripes(4);
        m.merge(&p, 3, 7);
        m.merge(&p, 7, 11);
        m.merge(&p, 2, 11);
        assert_monotone(&p);
        assert_eq!(chase(&p, 3), 2);
        assert_eq!(chase(&p, 7), 2);
        assert_eq!(chase(&p, 11), 2);
        assert_eq!(chase(&p, 5), 5);
    }

    #[test]
    fn concurrent_chain_merges_connect_everything() {
        // Many threads merge overlapping chains; the result must be one set.
        let n = 4096u32;
        let p = fresh(n);
        let m = LockedMerger::new();
        let threads = 8;
        std::thread::scope(|s| {
            for t in 0..threads {
                let p = &p;
                let m = &m;
                s.spawn(move || {
                    // Each thread merges an interleaved chain: (i, i+t+1)
                    let stride = t as u32 + 1;
                    let mut i = 1u32;
                    while i + stride <= n {
                        m.merge(p, i, i + stride);
                        i += 1;
                    }
                });
            }
        });
        assert_monotone(&p);
        for l in 1..=n {
            assert_eq!(chase(&p, l), 1, "label {l} not merged to 1");
        }
    }

    #[test]
    fn concurrent_disjoint_merges_stay_disjoint() {
        // Threads merge within disjoint residue classes mod 4; classes
        // must remain separate sets.
        let n = 4000u32;
        let p = fresh(n);
        let m = LockedMerger::new();
        std::thread::scope(|s| {
            for class in 0..4u32 {
                let p = &p;
                let m = &m;
                s.spawn(move || {
                    let mut i = class + 1;
                    while i + 4 <= n {
                        m.merge(p, i, i + 4);
                        i += 4;
                    }
                });
            }
        });
        let roots: Vec<u32> = (1..=4).map(|l| chase(&p, l)).collect();
        for l in 1..=n {
            assert_eq!(chase(&p, l), roots[((l - 1) % 4) as usize], "label {l}");
        }
        // four distinct classes
        let mut sorted = roots.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }
}
