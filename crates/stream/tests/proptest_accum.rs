//! Property tests for the fused-accumulation algebra: folding
//! [`Accum`]s with [`Accum::merge_with`] is **commutative** and
//! **associative** (with [`Accum::EMPTY`] as the identity of the full
//! [`Foldable::fold`]), across all 15 synthetic generator families.
//!
//! The fused path merges per-chunk partials in whatever order the seam
//! phase happens to union labels — nondeterministic under concurrent
//! mergers — so fold-order independence is exactly the property that
//! makes its output bit-identical to the sequential per-pixel pass.
//! Every field takes part: integer counters, bbox min/max, the raster-min
//! anchor, and the centroid sums, whose f64 additions are exact (integer
//! values below 2^53) and therefore genuinely associative.

use proptest::prelude::*;

use ccl_core::scan::Foldable as _;
use ccl_datasets::synth::{family_image, FAMILIES};
use ccl_image::BinaryImage;
use ccl_stream::Accum;

/// Exact (bitwise for the f64 sums) comparison key over every field
/// `merge_with` touches.
type Key = (
    u64,
    (usize, usize, usize, usize),
    u64,
    u64,
    (usize, usize),
    u64,
    i64,
);

fn key(a: &Accum) -> Key {
    (
        a.area,
        (a.min_r, a.min_c, a.max_r, a.max_c),
        a.sum_r.to_bits(),
        a.sum_c.to_bits(),
        a.anchor,
        a.perimeter,
        a.euler,
    )
}

/// The image's foreground pixels as single-pixel accumulators with their
/// true already-scanned neighbour masks — the units the fused path folds.
fn pixel_units(img: &BinaryImage) -> Vec<Accum> {
    let fg = |r: isize, c: isize| img.get_or_bg(r, c) == 1;
    let mut units = Vec::new();
    for r in 0..img.height() {
        for c in 0..img.width() {
            if img.get(r, c) == 0 {
                continue;
            }
            let (ri, ci) = (r as isize, c as isize);
            units.push(Accum::pixel(
                r,
                c,
                fg(ri, ci - 1),
                fg(ri - 1, ci - 1),
                fg(ri - 1, ci),
                fg(ri - 1, ci + 1),
            ));
        }
    }
    units
}

/// Splits `units` into `parts` non-empty partials by a seeded assignment,
/// folding each part's pixels in raster order.
fn partition(units: &[Accum], parts: usize, seed: u64) -> Vec<Accum> {
    let mut state = seed | 1;
    let mut partials = vec![Accum::EMPTY; parts.max(1)];
    for u in units {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let slot = (state >> 33) as usize % partials.len();
        partials[slot].fold(u);
    }
    partials.retain(|p| p.area > 0);
    partials
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `merge_with` is commutative: a ∪ b == b ∪ a on partials drawn
    /// from every generator family.
    #[test]
    fn merge_with_is_commutative(
        gen in 0usize..FAMILIES,
        w in 1usize..=16,
        h in 1usize..=16,
        seed in 0u64..1000,
    ) {
        let units = pixel_units(&family_image(gen, w, h, seed));
        let partials = partition(&units, 2, seed ^ 0xA5A5);
        if partials.len() == 2 {
            let mut ab = partials[0];
            ab.merge_with(&partials[1]);
            let mut ba = partials[1];
            ba.merge_with(&partials[0]);
            prop_assert_eq!(key(&ab), key(&ba), "generator {}", gen);
        }
    }

    /// `merge_with` is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn merge_with_is_associative(
        gen in 0usize..FAMILIES,
        w in 1usize..=16,
        h in 1usize..=16,
        seed in 0u64..1000,
    ) {
        let units = pixel_units(&family_image(gen, w, h, seed));
        let partials = partition(&units, 3, seed ^ 0x5A5A);
        if partials.len() == 3 {
            let mut left = partials[0];
            left.merge_with(&partials[1]);
            left.merge_with(&partials[2]);
            let mut bc = partials[1];
            bc.merge_with(&partials[2]);
            let mut right = partials[0];
            right.merge_with(&bc);
            prop_assert_eq!(key(&left), key(&right), "generator {}", gen);
        }
    }

    /// Fold-order independence end to end: any partition of a raster's
    /// pixel units, folded in any order (forward, reverse, interleaved
    /// tree), reproduces the raster-order sequential fold bit for bit —
    /// the invariant that lets the seam phase merge partials in
    /// nondeterministic order.
    #[test]
    fn any_fold_order_matches_the_sequential_fold(
        gen in 0usize..FAMILIES,
        w in 1usize..=16,
        h in 1usize..=16,
        parts in 1usize..=9,
        seed in 0u64..1000,
    ) {
        let units = pixel_units(&family_image(gen, w, h, seed));
        if !units.is_empty() {
            // raster-order sequential fold (what Accum::first + add build)
            let mut seq = Accum::EMPTY;
            for u in &units {
                seq.fold(u);
            }

            let partials = partition(&units, parts, seed ^ 0x1234);

            // forward left-fold of the partials
            let mut fwd = Accum::EMPTY;
            for p in &partials {
                fwd.fold(p);
            }
            prop_assert_eq!(key(&fwd), key(&seq), "forward, generator {}", gen);

            // reverse left-fold
            let mut rev = Accum::EMPTY;
            for p in partials.iter().rev() {
                rev.fold(p);
            }
            prop_assert_eq!(key(&rev), key(&seq), "reverse, generator {}", gen);

            // pairwise tree fold (seam-like: neighbours union first)
            let mut level: Vec<Accum> = partials;
            while level.len() > 1 {
                let mut next_level = Vec::with_capacity(level.len().div_ceil(2));
                for pair in level.chunks(2) {
                    let mut m = pair[0];
                    if let Some(b) = pair.get(1) {
                        m.merge_with(b);
                    }
                    next_level.push(m);
                }
                level = next_level;
            }
            prop_assert_eq!(key(&level[0]), key(&seq), "tree, generator {}", gen);
        }
    }
}
