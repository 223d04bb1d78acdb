//! Link-by-size union-find with full path compression — the third classic
//! linking rule in the Patwary–Blair–Manne comparison; included for the
//! union-find ablation bench (`ablation_unionfind` in `ccl-bench`).

use crate::flatten::flatten_generic;
use crate::{EquivalenceStore, UnionFind};

/// Array-based union-find with union-by-size and full path compression.
#[derive(Debug, Clone, Default)]
pub struct SizeUF {
    p: Vec<u32>,
    size: Vec<u32>,
    flattened: bool,
}

impl EquivalenceStore for SizeUF {
    #[inline]
    fn new_label(&mut self, label: u32) {
        debug_assert_eq!(label as usize, self.p.len(), "dense registration");
        self.p.push(label);
        self.size.push(1);
    }

    #[inline]
    fn merge(&mut self, x: u32, y: u32) -> u32 {
        self.union(x, y)
    }
}

impl UnionFind for SizeUF {
    fn new() -> Self {
        Self::default()
    }

    fn with_capacity(cap: usize) -> Self {
        SizeUF {
            p: Vec::with_capacity(cap),
            size: Vec::with_capacity(cap),
            flattened: false,
        }
    }

    #[inline]
    fn make_set(&mut self) -> u32 {
        let id = self.p.len() as u32;
        self.p.push(id);
        self.size.push(1);
        id
    }

    #[inline]
    fn find(&mut self, x: u32) -> u32 {
        let mut root = x as usize;
        while self.p[root] as usize != root {
            root = self.p[root] as usize;
        }
        let mut cur = x as usize;
        while self.p[cur] as usize != root {
            let next = self.p[cur] as usize;
            self.p[cur] = root as u32;
            cur = next;
        }
        root as u32
    }

    #[inline]
    fn union(&mut self, x: u32, y: u32) -> u32 {
        debug_assert!(!self.flattened, "union after flatten");
        let rx = self.find(x) as usize;
        let ry = self.find(y) as usize;
        if rx == ry {
            return rx as u32;
        }
        let (winner, loser) = if self.size[rx] >= self.size[ry] {
            (rx, ry)
        } else {
            (ry, rx)
        };
        self.p[loser] = winner as u32;
        self.size[winner] += self.size[loser];
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

    #[test]
    fn smaller_tree_links_under_larger() {
        let mut uf = SizeUF::new();
        for _ in 0..5 {
            uf.make_set();
        }
        uf.union(1, 2);
        uf.union(1, 3); // {1,2,3} rooted at 1
        uf.union(4, 1); // singleton 4 must join under 1's root
        let root = uf.find(1);
        assert_eq!(uf.find(4), root);
        assert_eq!(uf.p[4], root);
    }

    #[test]
    fn flatten_respects_minimum_ordering() {
        let mut uf = SizeUF::new();
        for _ in 0..5 {
            uf.make_set();
        }
        // Make {3,4} first so it is bigger when merged with {2}: root
        // stays 3 even though the eventual minimum of the set is 2.
        uf.union(3, 4);
        uf.union(3, 2);
        let k = uf.flatten();
        assert_eq!(k, 2); // {1}, {2,3,4}
        assert_eq!(uf.resolve(1), 1);
        assert_eq!(uf.resolve(2), 2);
        assert_eq!(uf.resolve(3), 2);
        assert_eq!(uf.resolve(4), 2);
    }

    #[test]
    fn count_sets_tracks_unions() {
        let mut uf = SizeUF::new();
        for _ in 0..4 {
            uf.make_set();
        }
        assert_eq!(uf.count_sets(), 4);
        uf.union(0, 1);
        assert_eq!(uf.count_sets(), 3);
        uf.union(2, 3);
        uf.union(0, 3);
        assert_eq!(uf.count_sets(), 1);
    }
}
