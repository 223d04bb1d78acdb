//! RemSP — Rem's union-find with the splicing compression (the paper's
//! Algorithm 2; originally Dijkstra's presentation of Rem's algorithm).
//!
//! Rem's algorithm links *by index*: parents always have indices ≤ their
//! children, so a set's root is its minimum member — exactly the "smallest
//! equivalent label" CCL wants, which is why FLATTEN (Algorithm 3) can
//! renumber it in one monotone pass. The union walk interleaves an
//! *immediate parent check* (stop as soon as the two walks see the same
//! parent) with *splicing*: while climbing from `rootx`, each visited node
//! is re-pointed at the other walk's (smaller) parent before moving on,
//! compressing the tree as a side effect of the union itself. No separate
//! find pass, no rank/size array — one word of state per element.

use crate::flatten::flatten_monotone;
use crate::{EquivalenceStore, UnionFind};

/// Rem's union-find with splicing. See the module docs.
///
/// ```
/// use ccl_unionfind::{RemSP, UnionFind};
///
/// let mut uf = RemSP::new();
/// for _ in 0..5 {
///     uf.make_set();
/// }
/// uf.union(3, 4);
/// uf.union(1, 3);
/// assert_eq!(uf.find(4), 1); // the root is the set's minimum element
/// assert_eq!(uf.count_sets(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RemSP {
    p: Vec<u32>,
    flattened: bool,
}

impl RemSP {
    /// Read-only view of the parent array (post-`flatten`: the final-label
    /// lookup table).
    pub fn parents(&self) -> &[u32] {
        &self.p
    }

    /// Appends `other`'s elements `from..` after this store's: element
    /// `x` becomes `x + shift`, where `shift = self.len() - from` is
    /// returned. No parent of those elements may lie below `from`. The
    /// shift keeps parents ≤ children, so every appended set keeps its
    /// minimum as root. This is how stores scanned apart are stitched
    /// into one, in O(appended elements).
    pub fn append_from(&mut self, other: &RemSP, from: u32) -> u32 {
        let shift = self.p.len() as u32 - from;
        self.p.extend(other.p[from as usize..].iter().map(|&q| {
            debug_assert!(q >= from, "parent below the appended range");
            q + shift
        }));
        shift
    }
}

impl EquivalenceStore for RemSP {
    #[inline]
    fn new_label(&mut self, label: u32) {
        debug_assert_eq!(label as usize, self.p.len(), "dense registration");
        self.p.push(label);
    }

    /// The paper's Algorithm 2.
    #[inline]
    fn merge(&mut self, x: u32, y: u32) -> u32 {
        debug_assert!(!self.flattened, "merge after flatten");
        let p = self.p.as_mut_slice();
        let mut rootx = x as usize;
        let mut rooty = y as usize;
        while p[rootx] != p[rooty] {
            if p[rootx] > p[rooty] {
                if rootx == p[rootx] as usize {
                    // rootx is a root: link it under rooty's parent.
                    p[rootx] = p[rooty];
                    return p[rootx];
                }
                // Splicing: re-point rootx at the smaller parent, then
                // continue the walk from rootx's old parent.
                let z = p[rootx] as usize;
                p[rootx] = p[rooty];
                rootx = z;
            } else {
                if rooty == p[rooty] as usize {
                    p[rooty] = p[rootx];
                    return p[rootx];
                }
                let z = p[rooty] as usize;
                p[rooty] = p[rootx];
                rooty = z;
            }
        }
        p[rootx]
    }
}

impl UnionFind for RemSP {
    fn new() -> Self {
        Self::default()
    }

    fn with_capacity(cap: usize) -> Self {
        RemSP {
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
        // Rem's trees are shallow thanks to splicing; a plain chase with
        // path halving keeps find cheap without an extra pass.
        let mut x = x as usize;
        while self.p[x] as usize != x {
            let parent = self.p[x] as usize;
            self.p[x] = self.p[parent];
            x = self.p[x] as usize;
        }
        x as u32
    }

    #[inline]
    fn union(&mut self, x: u32, y: u32) -> u32 {
        self.merge(x, y)
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
    fn singletons_are_their_own_roots() {
        let mut uf = RemSP::new();
        for i in 0..5 {
            assert_eq!(uf.make_set(), i);
        }
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
        assert_eq!(uf.count_sets(), 5);
    }

    #[test]
    fn union_links_to_smaller_index() {
        let mut uf = RemSP::new();
        for _ in 0..4 {
            uf.make_set();
        }
        uf.union(2, 3);
        assert_eq!(uf.find(3), 2);
        uf.union(1, 3);
        assert_eq!(uf.find(2), 1);
        assert_eq!(uf.find(3), 1);
        // root of a set is always its minimum member
        assert!(uf.same(1, 2) && uf.same(2, 3));
        assert!(!uf.same(0, 1));
    }

    #[test]
    fn append_from_shifts_sets_past_the_end() {
        let mut a = RemSP::new();
        for _ in 0..3 {
            a.make_set();
        }
        a.union(1, 2);
        let mut b = RemSP::new();
        for _ in 0..4 {
            b.make_set();
        }
        b.union(2, 3);
        // b's element 0 is left behind; 1..4 become 3..6
        assert_eq!(a.append_from(&b, 1), 2);
        assert_eq!(a.len(), 6);
        assert_eq!(a.find(2), 1);
        assert_eq!((a.find(3), a.find(4), a.find(5)), (3, 4, 4));
        a.union(2, 5);
        assert_eq!(a.find(5), 1);
    }

    #[test]
    fn merge_returns_common_representative() {
        let mut uf = RemSP::new();
        for _ in 0..6 {
            uf.make_set();
        }
        let r = uf.merge(4, 5);
        assert_eq!(r, 4);
        let r = uf.merge(5, 2);
        assert!(uf.same(2, 4));
        assert!(r == 2 || r == 4); // a common parent along the walk
    }

    #[test]
    fn monotone_invariant_always_holds() {
        let mut uf = RemSP::new();
        for _ in 0..32 {
            uf.make_set();
        }
        let mut state = 12345u64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = ((state >> 33) % 32) as u32;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let y = ((state >> 33) % 32) as u32;
            uf.union(x, y);
            for (i, &p) in uf.parents().iter().enumerate() {
                assert!(p as usize <= i, "p[{i}] = {p}");
            }
        }
    }

    #[test]
    fn flatten_produces_consecutive_labels() {
        let mut uf = RemSP::new();
        for _ in 0..7 {
            uf.make_set();
        }
        // sets: {1,2}, {3}, {4,5,6}; 0 is background
        uf.union(1, 2);
        uf.union(4, 5);
        uf.union(5, 6);
        let k = uf.flatten();
        assert_eq!(k, 3);
        assert_eq!(uf.resolve(0), 0);
        assert_eq!(uf.resolve(1), 1);
        assert_eq!(uf.resolve(2), 1);
        assert_eq!(uf.resolve(3), 2);
        assert_eq!(uf.resolve(4), 3);
        assert_eq!(uf.resolve(5), 3);
        assert_eq!(uf.resolve(6), 3);
    }

    #[test]
    #[should_panic(expected = "flatten called twice")]
    fn flatten_twice_panics() {
        let mut uf = RemSP::new();
        uf.make_set();
        uf.flatten();
        uf.flatten();
    }

    #[test]
    fn self_union_is_noop() {
        let mut uf = RemSP::new();
        for _ in 0..3 {
            uf.make_set();
        }
        uf.union(2, 2);
        assert_eq!(uf.count_sets(), 3);
    }

    #[test]
    fn equivalence_store_new_label_matches_make_set() {
        let mut a = RemSP::new();
        let mut b = RemSP::new();
        for i in 0..4u32 {
            a.make_set();
            b.new_label(i);
        }
        assert_eq!(a.parents(), b.parents());
    }

    #[test]
    fn long_chain_compresses() {
        let mut uf = RemSP::new();
        let n = 1000;
        for _ in 0..n {
            uf.make_set();
        }
        for i in (1..n).rev() {
            uf.union(i - 1, i);
        }
        for i in 0..n {
            assert_eq!(uf.find(i), 0);
        }
        assert_eq!(uf.count_sets(), 1);
    }
}
