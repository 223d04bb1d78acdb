//! He–Chao–Suzuki equivalence table (`rtable` / `next` / `tail`) — the
//! label-equivalence structure used by the RUN and ARUN baselines (the
//! paper's refs \[37\] and \[43\]).
//!
//! Instead of a tree, each equivalence class is kept as a linked list of
//! its member labels, with every member's representative maintained
//! eagerly:
//!
//! * `rtable[l]` — the representative (smallest label) of `l`'s set,
//! * `next[l]` — the next member in `l`'s set's list (`NIL` at the end),
//! * `tail[r]` — the last member of representative `r`'s list.
//!
//! A merge of two sets walks the *absorbed* list once to update its
//! members' `rtable` entries, then splices the lists in O(1). Finds are
//! O(1) table lookups — this is the structure's selling point: the second
//! image pass needs no root chasing at all. The cost moves into merges,
//! which RemSP does cheaper; Table II quantifies exactly that trade.

use crate::{EquivalenceStore, UnionFind};

/// Sentinel terminating the member lists.
const NIL: u32 = u32::MAX;

/// The three-array equivalence structure of He et al.
#[derive(Debug, Clone, Default)]
pub struct HeEquivalence {
    rtable: Vec<u32>,
    next: Vec<u32>,
    tail: Vec<u32>,
    flattened: bool,
}

impl EquivalenceStore for HeEquivalence {
    #[inline]
    fn new_label(&mut self, label: u32) {
        debug_assert_eq!(label as usize, self.rtable.len(), "dense registration");
        self.rtable.push(label);
        self.next.push(NIL);
        self.tail.push(label);
    }

    #[inline]
    fn merge(&mut self, x: u32, y: u32) -> u32 {
        debug_assert!(!self.flattened, "merge after flatten");
        let rx = self.rtable[x as usize];
        let ry = self.rtable[y as usize];
        if rx == ry {
            return rx;
        }
        // Keep the smaller representative; absorb the larger's list.
        let (keep, gone) = if rx < ry { (rx, ry) } else { (ry, rx) };
        let mut m = gone;
        while m != NIL {
            self.rtable[m as usize] = keep;
            m = self.next[m as usize];
        }
        self.next[self.tail[keep as usize] as usize] = gone;
        self.tail[keep as usize] = self.tail[gone as usize];
        keep
    }
}

impl UnionFind for HeEquivalence {
    fn new() -> Self {
        Self::default()
    }

    fn with_capacity(cap: usize) -> Self {
        HeEquivalence {
            rtable: Vec::with_capacity(cap),
            next: Vec::with_capacity(cap),
            tail: Vec::with_capacity(cap),
            flattened: false,
        }
    }

    #[inline]
    fn make_set(&mut self) -> u32 {
        let id = self.rtable.len() as u32;
        self.new_label(id);
        id
    }

    /// O(1): representatives are maintained eagerly.
    #[inline]
    fn find(&mut self, x: u32) -> u32 {
        self.rtable[x as usize]
    }

    #[inline]
    fn union(&mut self, x: u32, y: u32) -> u32 {
        self.merge(x, y)
    }

    fn len(&self) -> usize {
        self.rtable.len()
    }

    fn flatten(&mut self) -> u32 {
        assert!(!self.flattened, "flatten called twice");
        self.flattened = true;
        // rtable[l] ≤ l and rtable[r] = r for representatives: the
        // monotone FLATTEN applies to rtable directly.
        crate::flatten::flatten_monotone(&mut self.rtable)
    }

    #[inline]
    fn resolve(&self, x: u32) -> u32 {
        debug_assert!(self.flattened, "resolve before flatten");
        self.rtable[x as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Members of the set represented by `r`, in list order.
    fn members(eq: &HeEquivalence, r: u32) -> Vec<u32> {
        assert_eq!(eq.rtable[r as usize], r, "not a representative");
        let mut out = Vec::new();
        let mut m = r;
        while m != NIL {
            out.push(m);
            m = eq.next[m as usize];
        }
        out
    }

    #[test]
    fn find_is_constant_time_lookup() {
        let mut eq = HeEquivalence::new();
        for _ in 0..5 {
            eq.make_set();
        }
        eq.merge(3, 4);
        // every member's rtable updated eagerly
        assert_eq!(eq.rtable[4], 3);
        assert_eq!(eq.find(4), 3);
        eq.merge(1, 3);
        assert_eq!(eq.find(4), 1);
        assert_eq!(eq.find(3), 1);
    }

    #[test]
    fn member_lists_concatenate() {
        let mut eq = HeEquivalence::new();
        for _ in 0..6 {
            eq.make_set();
        }
        eq.merge(1, 2);
        eq.merge(4, 5);
        eq.merge(2, 5);
        assert_eq!(members(&eq, 1), vec![1, 2, 4, 5]);
        assert_eq!(members(&eq, 3), vec![3]);
    }

    #[test]
    fn representative_is_minimum() {
        let mut eq = HeEquivalence::new();
        for _ in 0..8 {
            eq.make_set();
        }
        eq.merge(7, 5);
        eq.merge(5, 6);
        assert_eq!(eq.find(7), 5);
        eq.merge(6, 2);
        assert_eq!(eq.find(7), 2);
        assert_eq!(eq.find(5), 2);
        assert_eq!(eq.find(6), 2);
    }

    #[test]
    fn merge_same_set_is_noop() {
        let mut eq = HeEquivalence::new();
        for _ in 0..4 {
            eq.make_set();
        }
        eq.merge(1, 2);
        let before = members(&eq, 1);
        eq.merge(2, 1);
        assert_eq!(members(&eq, 1), before);
    }

    #[test]
    fn flatten_matches_remsp() {
        use crate::seq::rem::RemSP;
        let unions = [(1u32, 4u32), (2, 5), (5, 7), (3, 3)];
        let mut he = HeEquivalence::new();
        let mut rem = RemSP::new();
        for _ in 0..9 {
            he.make_set();
            rem.make_set();
        }
        for &(x, y) in &unions {
            he.merge(x, y);
            rem.merge(x, y);
        }
        let kh = he.flatten();
        let kr = rem.flatten();
        assert_eq!(kh, kr);
        for x in 0..9 {
            assert_eq!(he.resolve(x), rem.resolve(x), "label {x}");
        }
    }

    #[test]
    fn count_sets_consistent() {
        let mut eq = HeEquivalence::new();
        for _ in 0..5 {
            eq.make_set();
        }
        assert_eq!(eq.count_sets(), 5);
        eq.merge(0, 1);
        eq.merge(2, 3);
        assert_eq!(eq.count_sets(), 3);
    }
}
