//! The analysis phase: FLATTEN (the paper's Algorithm 3).
//!
//! After the scan phase, the parent array `p` encodes a forest over
//! provisional labels. FLATTEN rewrites `p` in place into a lookup table
//! mapping every provisional label to a *final* label, with final labels
//! consecutive starting at 1 (label 0 stays the background).
//!
//! Algorithm 3 visits labels in increasing order and relies on the
//! **monotone parent invariant** `p[i] ≤ i` (every parent has a smaller or
//! equal index, so a set's root is its minimum member). RemSP, MinUF and
//! He's equivalence table maintain that invariant; rank- and size-linked
//! structures do not, and use [`flatten_generic`] instead.
//!
//! PAREMSP needs no other form: it stitches its per-chunk stores into
//! one dense, monotone parent array before the boundary merge, so the
//! same [`flatten_monotone`] serves the sequential and parallel labelers.

/// Dense FLATTEN (Algorithm 3). `p[0]` is the reserved background and must
/// be its own root; elements in its set (e.g. PAREMSP's per-chunk
/// background slots) get final label 0. Returns the number of other sets.
///
/// # Panics
/// Panics (debug only) when the monotone invariant `p[i] ≤ i` is violated.
pub fn flatten_monotone(p: &mut [u32]) -> u32 {
    if p.is_empty() {
        return 0;
    }
    debug_assert_eq!(p[0], 0, "background element must be a root");
    let mut k = 1u32;
    for i in 1..p.len() {
        let pi = p[i];
        debug_assert!(
            (pi as usize) <= i,
            "monotone invariant violated: p[{i}] = {pi}"
        );
        if (pi as usize) < i {
            // Non-root: the parent was already rewritten to its final
            // label, so one hop suffices.
            p[i] = p[pi as usize];
        } else {
            p[i] = k;
            k += 1;
        }
    }
    k - 1
}

/// Generic flatten for arbitrary tree shapes (e.g. link-by-rank, where a
/// root may have a larger index than its children). Two passes:
/// full path compression, then consecutive renumbering in order of each
/// set's smallest member — producing exactly the same final labels as
/// [`flatten_monotone`] does for monotone forests.
pub fn flatten_generic(p: &mut [u32]) -> u32 {
    if p.is_empty() {
        return 0;
    }
    assert_eq!(p[0], 0, "background element must be a root");
    // Pass 1: point every element directly at its root.
    for i in 0..p.len() {
        let mut root = i as u32;
        while p[root as usize] != root {
            root = p[root as usize];
        }
        // compress the whole path
        let mut cur = i as u32;
        while p[cur as usize] != root {
            let next = p[cur as usize];
            p[cur as usize] = root;
            cur = next;
        }
    }
    // Pass 2: assign consecutive labels in order of smallest member.
    // Visiting i ascending, the first time we see a root it is via its
    // smallest member (or itself), so numbering follows minima.
    const UNSET: u32 = u32::MAX;
    let mut final_label = vec![UNSET; p.len()];
    final_label[0] = 0;
    let mut k = 1u32;
    for pi in p.iter_mut().skip(1) {
        let r = *pi as usize;
        if final_label[r] == UNSET {
            final_label[r] = k;
            k += 1;
        }
        *pi = final_label[r];
    }
    k - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_monotone_singletons() {
        let mut p = vec![0, 1, 2, 3];
        let k = flatten_monotone(&mut p);
        assert_eq!(k, 3);
        assert_eq!(p, vec![0, 1, 2, 3]);
    }

    #[test]
    fn flatten_monotone_chain() {
        // 1 <- 2 <- 3 (all one set), 4 alone
        let mut p = vec![0, 1, 1, 2, 4];
        let k = flatten_monotone(&mut p);
        assert_eq!(k, 2);
        assert_eq!(p, vec![0, 1, 1, 1, 2]);
    }

    #[test]
    fn flatten_monotone_makes_labels_consecutive() {
        // sets {1,3}, {2}, {4,5}
        let mut p = vec![0, 1, 2, 1, 4, 4];
        let k = flatten_monotone(&mut p);
        assert_eq!(k, 3);
        assert_eq!(p, vec![0, 1, 2, 1, 3, 3]);
    }

    #[test]
    fn flatten_empty() {
        assert_eq!(flatten_monotone(&mut []), 0);
        assert_eq!(flatten_generic(&mut []), 0);
    }

    #[test]
    fn flatten_generic_handles_non_monotone_roots() {
        // link-by-rank style: set {1,2} rooted at 2, set {3} singleton.
        let mut p = vec![0, 2, 2, 3];
        let k = flatten_generic(&mut p);
        assert_eq!(k, 2);
        // smallest member of {1,2} is 1 -> final label 1; {3} -> 2.
        assert_eq!(p, vec![0, 1, 1, 2]);
    }

    #[test]
    fn flatten_generic_deep_chain_upward() {
        // 1 -> 2 -> 3 -> 4 (root 4)
        let mut p = vec![0, 2, 3, 4, 4];
        let k = flatten_generic(&mut p);
        assert_eq!(k, 1);
        assert_eq!(p, vec![0, 1, 1, 1, 1]);
    }

    #[test]
    fn flatten_generic_matches_monotone_on_monotone_input() {
        let inputs: Vec<Vec<u32>> = vec![
            vec![0, 1, 1, 2, 4, 4, 1],
            vec![0, 1, 2, 3, 4],
            vec![0, 1, 1, 1, 1],
        ];
        for input in inputs {
            let mut a = input.clone();
            let mut b = input.clone();
            let ka = flatten_monotone(&mut a);
            let kb = flatten_generic(&mut b);
            assert_eq!(ka, kb);
            assert_eq!(a, b, "input {input:?}");
        }
    }

    #[test]
    #[should_panic(expected = "background")]
    fn flatten_generic_rejects_merged_background() {
        let mut p = vec![1u32, 1];
        flatten_generic(&mut p);
    }
}
