//! Property tests for the fused-accumulation algebra, across all 15
//! synthetic generator families.
//!
//! The scan stage folds one closed-form accumulator per **tile-local
//! run** ([`Accum::from_run_counts`]); the per-pixel units
//! ([`Accum::pixel`]) are the definition it must match. So the suite
//! checks two things:
//!
//! 1. every tile-local run's [`Accum::from_run_counts`], on neighbour
//!    counts taken from the run's pixels, equals the raster-order fold
//!    of its pixels' units bit for bit — runs at a tile's left or right
//!    edge included, whose neighbour flags come from the adjacent tile;
//! 2. folding [`Accum`]s with [`Accum::merge_with`] is **commutative**
//!    and **associative** (with [`Accum::EMPTY`] as the identity of the
//!    full [`Accum::fold`]).
//!
//! The fused path merges per-tile partials in whatever order the seam
//! phase happens to union labels — nondeterministic under concurrent
//! mergers — so fold-order independence is exactly the property that
//! makes its output bit-identical to a sequential per-pixel pass.
//! Every field takes part: integer counters, bbox min/max, the raster-min
//! anchor, and the centroid sums, whose f64 additions are exact (integer
//! values below 2^53) and therefore genuinely associative.

use proptest::prelude::*;

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

/// The single-pixel accumulator of foreground pixel `(r, c)` with its
/// true already-scanned neighbour mask — the unit the fused path folds.
fn pixel_unit(img: &BinaryImage, r: usize, c: usize) -> Accum {
    let fg = |r: isize, c: isize| img.get_or_bg(r, c) == 1;
    let (ri, ci) = (r as isize, c as isize);
    Accum::pixel(
        r,
        c,
        fg(ri, ci - 1),
        fg(ri - 1, ci - 1),
        fg(ri - 1, ci),
        fg(ri - 1, ci + 1),
    )
}

/// The image's foreground pixels as single-pixel units, in raster order.
fn pixel_units(img: &BinaryImage) -> Vec<Accum> {
    let mut units = Vec::new();
    for r in 0..img.height() {
        for c in 0..img.width() {
            if img.get(r, c) == 1 {
                units.push(pixel_unit(img, r, c));
            }
        }
    }
    units
}

/// One tile-local run: row, columns, and whether it touches its tile's
/// left or right edge.
struct TileRun {
    r: usize,
    a: usize,
    b: usize,
    left_edge: bool,
    right_edge: bool,
}

/// Every tile-local run of `img` cut into column tiles of `widths`
/// (positive, cycled until the image is covered).
fn tile_runs(img: &BinaryImage, widths: &[usize]) -> Vec<TileRun> {
    let mut tiles = Vec::new();
    let mut x0 = 0;
    for &tw in widths.iter().cycle() {
        if x0 >= img.width() {
            break;
        }
        let x1 = (x0 + tw).min(img.width());
        tiles.push(x0..x1);
        x0 = x1;
    }
    let mut out = Vec::new();
    for r in 0..img.height() {
        let line = img.row(r);
        for tile in &tiles {
            let mut c = tile.start;
            while c < tile.end {
                if line[c] == 0 {
                    c += 1;
                    continue;
                }
                let a = c;
                while c < tile.end && line[c] == 1 {
                    c += 1;
                }
                out.push(TileRun {
                    r,
                    a,
                    b: c,
                    left_edge: a == tile.start,
                    right_edge: c == tile.end,
                });
            }
        }
    }
    out
}

/// [`Accum::from_run_counts`] of one tile-local run, its neighbour
/// flags read from the whole raster (so from the adjacent tiles at a tile
/// edge) and its Σnorth and Σ(north|ne) counted pixel by pixel from the
/// bytes of the row above — each pixel's ne is the next pixel's north,
/// the last one's the pixel past the run.
fn run_accum(img: &BinaryImage, run: &TileRun) -> Accum {
    let fg = |r: isize, c: isize| img.get_or_bg(r, c) == 1;
    let (ri, ai, bi) = (run.r as isize, run.a as isize, run.b as isize);
    let north = (ai..bi).filter(|&c| fg(ri - 1, c)).count() as u64;
    let north_or_ne = (ai..bi)
        .filter(|&c| fg(ri - 1, c) || fg(ri - 1, c + 1))
        .count() as u64;
    Accum::from_run_counts(
        run.r,
        run.a..run.b,
        fg(ri, ai - 1),
        fg(ri - 1, ai - 1),
        fg(ri - 1, ai),
        north,
        north_or_ne,
    )
}

/// The raster-order fold of one run's pixel units.
fn run_pixel_fold(img: &BinaryImage, run: &TileRun) -> Accum {
    let mut acc = Accum::EMPTY;
    for c in run.a..run.b {
        acc.fold(&pixel_unit(img, run.r, c));
    }
    acc
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

    /// Every tile-local run's closed form equals the raster-order fold of
    /// its pixel units, bitwise on every key field, for column tiles of
    /// random widths — runs cut at a tile edge take their west, nw and
    /// ne flags from the adjacent tile.
    #[test]
    fn run_equals_the_fold_of_its_pixel_units(
        gen in 0usize..FAMILIES,
        w in 1usize..=24,
        h in 1usize..=12,
        widths in proptest::collection::vec(1usize..=6, 1..6),
        seed in 0u64..1000,
    ) {
        let img = family_image(gen, w, h, seed);
        for run in tile_runs(&img, &widths) {
            prop_assert_eq!(
                key(&run_accum(&img, &run)),
                key(&run_pixel_fold(&img, &run)),
                "generator {}, row {}, cols {}..{}", gen, run.r, run.a, run.b
            );
        }
    }

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

/// The run property above, on fixed seeds with narrow tiles, reaches
/// runs at both tile edges whose neighbour flags are set only by the
/// adjacent tile — so the edge cases cannot go untested by chance.
#[test]
fn edge_runs_with_neighbour_tile_flags_match_their_pixel_units() {
    let (mut west_from_left, mut ne_from_right) = (0, 0);
    for gen in 0..FAMILIES {
        for seed in 0..4 {
            let img = family_image(gen, 20, 12, seed);
            for run in tile_runs(&img, &[3, 1, 5, 2]) {
                let fg = |r: usize, c: usize| img.get_or_bg(r as isize, c as isize) == 1;
                if run.left_edge && run.a > 0 && fg(run.r, run.a - 1) {
                    west_from_left += 1;
                }
                if run.right_edge && run.r > 0 && fg(run.r - 1, run.b) {
                    ne_from_right += 1;
                }
                assert_eq!(
                    key(&run_accum(&img, &run)),
                    key(&run_pixel_fold(&img, &run)),
                    "generator {gen}, row {}, cols {}..{}",
                    run.r,
                    run.a,
                    run.b
                );
            }
        }
    }
    assert!(west_from_left > 0 && ne_from_right > 0);
}
