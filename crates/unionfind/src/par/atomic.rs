//! CAS-only parallel Rem's union-find.
//!
//! The lock-free counterpart to [`super::locked::LockedMerger`]: every
//! parent write — root links *and* interior splices — is a
//! `compare_exchange` validated against the value the walk observed. A
//! failed exchange simply re-reads and continues; no write ever lands on a
//! stale premise, so every slot's value sequence is strictly decreasing
//! and the monotone invariant is immediate. This is the "verification
//! technique" variant of Patwary–Refsnes–Manne (the paper's ref \[38\]),
//! which their experiments — and ours (ablation A3) — show trades slightly
//! more retries for no lock traffic.

use super::{ConcurrentMerger, ConcurrentParents};

/// Lock-free merger: all writes validated with `compare_exchange`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CasMerger;

impl CasMerger {
    /// Creates the (stateless) CAS merger.
    pub fn new() -> Self {
        CasMerger
    }
}

impl ConcurrentMerger for CasMerger {
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
                    // Root link: succeeds only if still a self-parent.
                    if p.compare_exchange(rootx, px, py) {
                        return;
                    }
                    // Interference: retry with fresh values.
                } else {
                    // Validated splice; advance only on success so the
                    // walk never skips past an unobserved update.
                    if p.compare_exchange(rootx, px, py) {
                        rootx = px;
                    }
                }
            } else if rooty == py {
                if p.compare_exchange(rooty, py, px) {
                    return;
                }
            } else if p.compare_exchange(rooty, py, px) {
                rooty = py;
            }
        }
    }

    fn name(&self) -> &'static str {
        "cas"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::tests::{assert_monotone, chase, fresh};

    #[test]
    fn sequential_semantics_match_rem() {
        let p = fresh(10);
        let m = CasMerger::new();
        m.merge(&p, 4, 9);
        m.merge(&p, 9, 2);
        m.merge(&p, 7, 8);
        assert_monotone(&p);
        assert_eq!(chase(&p, 4), 2);
        assert_eq!(chase(&p, 9), 2);
        assert_eq!(chase(&p, 8), 7);
        assert_eq!(chase(&p, 5), 5);
    }

    #[test]
    fn concurrent_chain_merges_connect_everything() {
        let n = 4096u32;
        let p = fresh(n);
        let m = CasMerger::new();
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let p = &p;
                let m = &m;
                s.spawn(move || {
                    let stride = t + 1;
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
            assert_eq!(chase(&p, l), 1, "label {l}");
        }
    }

    #[test]
    fn concurrent_star_merges() {
        // All threads merge random nodes with node 1: heavy contention on
        // a single root.
        let n = 2048u32;
        let p = fresh(n);
        let m = CasMerger::new();
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let p = &p;
                let m = &m;
                s.spawn(move || {
                    let mut l = t + 2;
                    while l <= n {
                        m.merge(p, 1, l);
                        l += 8;
                    }
                });
            }
        });
        for l in 1..=n {
            assert_eq!(chase(&p, l), 1, "label {l}");
        }
    }

    #[test]
    fn disjoint_classes_remain_disjoint() {
        let n = 3000u32;
        let p = fresh(n);
        let m = CasMerger::new();
        std::thread::scope(|s| {
            for class in 0..3u32 {
                let p = &p;
                let m = &m;
                s.spawn(move || {
                    let mut i = class + 1;
                    while i + 3 <= n {
                        m.merge(p, i, i + 3);
                        i += 3;
                    }
                });
            }
        });
        for l in 1..=n {
            assert_eq!(chase(&p, l), ((l - 1) % 3) + 1, "label {l}");
        }
    }
}
