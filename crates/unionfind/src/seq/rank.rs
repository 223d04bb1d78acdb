//! Link-by-rank union-find — the structure inside CCLLRPC (Wu, Otoo &
//! Suzuki, the paper's ref \[36\]): array-based, union by rank, with path
//! compression. Gupta et al. cite the Patwary–Blair–Manne finding that
//! this is *not* the best choice, which motivates RemSP; we implement it
//! faithfully as the baseline, plus the path-halving / path-splitting
//! compression alternatives for the `ablation_unionfind` bench.
//!
//! Rank trees may be rooted at a non-minimal element, so the analysis
//! phase uses [`crate::flatten::flatten_generic`] (the paper's Algorithm 3
//! requires the monotone invariant that rank linking does not maintain).

use crate::flatten::flatten_generic;
use crate::{EquivalenceStore, UnionFind};

/// Path-compression policy applied during [`UnionFind::find`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Two-pass full path compression (the CCLLRPC choice).
    #[default]
    Full,
    /// Path halving: every other node on the path points to its
    /// grandparent (one pass).
    Halving,
    /// Path splitting: every node on the path points to its grandparent
    /// (one pass).
    Splitting,
    /// No compression (for ablation comparisons only).
    None,
}

/// Array-based union-find with union-by-rank.
#[derive(Debug, Clone)]
pub struct RankUF {
    p: Vec<u32>,
    rank: Vec<u8>,
    compression: Compression,
    flattened: bool,
}

impl Default for RankUF {
    fn default() -> Self {
        Self::new_with(Compression::Full)
    }
}

impl RankUF {
    /// Creates an empty structure with the given compression policy.
    pub fn new_with(compression: Compression) -> Self {
        RankUF {
            p: Vec::new(),
            rank: Vec::new(),
            compression,
            flattened: false,
        }
    }

    /// The active compression policy.
    pub fn compression(&self) -> Compression {
        self.compression
    }

    #[inline]
    fn find_root(&self, mut x: usize) -> usize {
        while self.p[x] as usize != x {
            x = self.p[x] as usize;
        }
        x
    }
}

impl EquivalenceStore for RankUF {
    #[inline]
    fn new_label(&mut self, label: u32) {
        debug_assert_eq!(label as usize, self.p.len(), "dense registration");
        self.p.push(label);
        self.rank.push(0);
    }

    #[inline]
    fn merge(&mut self, x: u32, y: u32) -> u32 {
        self.union(x, y)
    }
}

impl UnionFind for RankUF {
    fn new() -> Self {
        Self::default()
    }

    fn with_capacity(cap: usize) -> Self {
        RankUF {
            p: Vec::with_capacity(cap),
            rank: Vec::with_capacity(cap),
            compression: Compression::Full,
            flattened: false,
        }
    }

    #[inline]
    fn make_set(&mut self) -> u32 {
        let id = self.p.len() as u32;
        self.p.push(id);
        self.rank.push(0);
        id
    }

    #[inline]
    fn find(&mut self, x: u32) -> u32 {
        let mut x = x as usize;
        match self.compression {
            Compression::Full => {
                let root = self.find_root(x);
                while self.p[x] as usize != root {
                    let next = self.p[x] as usize;
                    self.p[x] = root as u32;
                    x = next;
                }
                root as u32
            }
            Compression::Halving => {
                while self.p[x] as usize != x {
                    let parent = self.p[x] as usize;
                    self.p[x] = self.p[parent];
                    x = self.p[x] as usize;
                }
                x as u32
            }
            Compression::Splitting => {
                while self.p[x] as usize != x {
                    let parent = self.p[x] as usize;
                    self.p[x] = self.p[parent];
                    x = parent;
                }
                x as u32
            }
            Compression::None => self.find_root(x) as u32,
        }
    }

    #[inline]
    fn union(&mut self, x: u32, y: u32) -> u32 {
        debug_assert!(!self.flattened, "union after flatten");
        let rx = self.find(x) as usize;
        let ry = self.find(y) as usize;
        if rx == ry {
            return rx as u32;
        }
        let (winner, loser) = if self.rank[rx] >= self.rank[ry] {
            (rx, ry)
        } else {
            (ry, rx)
        };
        self.p[loser] = winner as u32;
        if self.rank[winner] == self.rank[loser] {
            self.rank[winner] += 1;
        }
        winner as u32
    }

    fn len(&self) -> usize {
        self.p.len()
    }

    fn flatten(&mut self) -> u32 {
        assert!(!self.flattened, "flatten called twice");
        self.flattened = true;
        flatten_generic(&mut self.p)
    }

    #[inline]
    fn resolve(&self, x: u32) -> u32 {
        debug_assert!(self.flattened, "resolve before flatten");
        self.p[x as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_policies() -> [Compression; 4] {
        [
            Compression::Full,
            Compression::Halving,
            Compression::Splitting,
            Compression::None,
        ]
    }

    #[test]
    fn union_by_rank_keeps_trees_shallow() {
        let mut uf = RankUF::new();
        for _ in 0..8 {
            uf.make_set();
        }
        // balanced merges: rank should never exceed log2(n)
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(4, 5);
        uf.union(6, 7);
        uf.union(0, 2);
        uf.union(4, 6);
        uf.union(0, 4);
        assert_eq!(uf.count_sets(), 1);
        assert!(uf.rank.iter().all(|&r| r <= 3));
    }

    #[test]
    fn all_compression_policies_agree() {
        for comp in all_policies() {
            let mut uf = RankUF::new_with(comp);
            for _ in 0..16 {
                uf.make_set();
            }
            for i in (1..16).step_by(2) {
                uf.union(i - 1, i);
            }
            uf.union(0, 2);
            uf.union(4, 6);
            uf.union(0, 4);
            assert!(uf.same(0, 7), "policy {comp:?}");
            assert!(!uf.same(0, 8), "policy {comp:?}");
            // sets: {0..=7}, {8,9}, {10,11}, {12,13}, {14,15}
            assert_eq!(uf.count_sets(), 5, "policy {comp:?}");
        }
    }

    #[test]
    fn full_compression_flattens_paths() {
        let mut uf = RankUF::new_with(Compression::Full);
        for _ in 0..5 {
            uf.make_set();
        }
        uf.union(0, 1);
        uf.union(0, 2);
        uf.union(0, 3);
        uf.union(0, 4);
        let root = uf.find(4);
        for i in 0..5 {
            assert_eq!(uf.find(i), root);
            assert_eq!(uf.p[i as usize], root);
        }
    }

    #[test]
    fn halving_shortens_path() {
        let mut uf = RankUF::new_with(Compression::Halving);
        for _ in 0..4 {
            uf.make_set();
        }
        // force a chain 3 -> 2 -> 1 -> 0 by hand-crafted unions is not
        // possible with rank linking; emulate by direct parent writes via
        // union on fresh singletons of equal rank.
        uf.union(0, 1); // p[1] = 0, rank[0]=1
        uf.union(2, 3); // p[3] = 2, rank[2]=1
        uf.union(1, 3); // roots 0,2 equal rank -> p[2] = 0 (or p[0]=2)
        let r = uf.find(3);
        assert_eq!(r, uf.find(0));
        assert_eq!(uf.count_sets(), 1);
    }

    #[test]
    fn flatten_orders_by_smallest_member() {
        let mut uf = RankUF::new();
        for _ in 0..6 {
            uf.make_set();
        }
        // Arrange a set whose rank-root is NOT its minimum: union(5, 4)
        // then union(4, 1): root stays 5 (rank 1) even though min is 1.
        uf.union(5, 4);
        uf.union(4, 1);
        uf.union(2, 3);
        let k = uf.flatten();
        assert_eq!(k, 2);
        // {1,4,5} has the smaller minimum -> final label 1; {2,3} -> 2.
        assert_eq!(uf.resolve(1), 1);
        assert_eq!(uf.resolve(4), 1);
        assert_eq!(uf.resolve(5), 1);
        assert_eq!(uf.resolve(2), 2);
        assert_eq!(uf.resolve(3), 2);
        assert_eq!(uf.resolve(0), 0);
    }

    #[test]
    fn merge_is_union() {
        let mut uf = RankUF::new();
        for i in 0..3u32 {
            uf.new_label(i);
        }
        uf.merge(1, 2);
        assert!(uf.same(1, 2));
    }
}
