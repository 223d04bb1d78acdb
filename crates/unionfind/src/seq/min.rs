//! Link-by-minimum-root union-find — the classic CCL linking rule (used,
//! e.g., in Wu et al.'s reference implementation before they adopted rank
//! linking): the smaller root always wins, so a set's representative is
//! its minimum member and the monotone FLATTEN (Algorithm 3) applies.
//!
//! Slower asymptotically than rank/size linking (trees can degenerate),
//! but CCL merge patterns are extremely local, which keeps the trees
//! shallow in practice; the ablation bench quantifies this.

use crate::flatten::flatten_monotone;
use crate::{EquivalenceStore, UnionFind};

/// Union-find linking by minimum root with full path compression.
#[derive(Debug, Clone, Default)]
pub struct MinUF {
    p: Vec<u32>,
    flattened: bool,
}

impl EquivalenceStore for MinUF {
    #[inline]
    fn new_label(&mut self, label: u32) {
        debug_assert_eq!(label as usize, self.p.len(), "dense registration");
        self.p.push(label);
    }

    #[inline]
    fn merge(&mut self, x: u32, y: u32) -> u32 {
        self.union(x, y)
    }
}

impl UnionFind for MinUF {
    fn new() -> Self {
        Self::default()
    }

    fn with_capacity(cap: usize) -> Self {
        MinUF {
            p: Vec::with_capacity(cap),
            flattened: false,
        }
    }

    #[inline]
    fn make_set(&mut self) -> u32 {
        let id = self.p.len() as u32;
        self.p.push(id);
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
        let rx = self.find(x);
        let ry = self.find(y);
        if rx == ry {
            return rx;
        }
        let (winner, loser) = if rx < ry { (rx, ry) } else { (ry, rx) };
        self.p[loser as usize] = winner;
        winner
    }

    fn len(&self) -> usize {
        self.p.len()
    }

    fn flatten(&mut self) -> u32 {
        assert!(!self.flattened, "flatten called twice");
        self.flattened = true;
        flatten_monotone(&mut self.p)
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
    fn minimum_always_wins() {
        let mut uf = MinUF::new();
        for _ in 0..6 {
            uf.make_set();
        }
        uf.union(5, 3);
        assert_eq!(uf.find(5), 3);
        uf.union(3, 1);
        assert_eq!(uf.find(5), 1);
        uf.union(2, 5);
        assert_eq!(uf.find(2), 1);
    }

    #[test]
    fn monotone_invariant_holds() {
        let mut uf = MinUF::new();
        for _ in 0..20 {
            uf.make_set();
        }
        let mut s = 7u64;
        for _ in 0..100 {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let x = ((s >> 32) % 20) as u32;
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let y = ((s >> 32) % 20) as u32;
            uf.union(x, y);
        }
        for (i, &p) in uf.p.iter().enumerate() {
            assert!(p as usize <= i);
        }
    }

    #[test]
    fn flatten_consecutive() {
        let mut uf = MinUF::new();
        for _ in 0..5 {
            uf.make_set();
        }
        uf.union(2, 4);
        let k = uf.flatten();
        assert_eq!(k, 3); // {1}, {2,4}, {3}
        assert_eq!(uf.resolve(1), 1);
        assert_eq!(uf.resolve(2), 2);
        assert_eq!(uf.resolve(3), 3);
        assert_eq!(uf.resolve(4), 2);
    }
}
