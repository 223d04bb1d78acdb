//! Property-based tests (proptest) over the core invariants:
//!
//! * all labeling algorithms are bit-identical on arbitrary images,
//! * PAREMSP is invariant under thread count and merger choice,
//! * union-find variants induce identical partitions under arbitrary
//!   union scripts, and flatten renumbers consecutively,
//! * Netpbm serialization round-trips.

use proptest::prelude::*;

use paremsp::core::seq::{aremsp, flood_fill_label};
use paremsp::core::Algorithm;
use paremsp::image::io::pbm;
use paremsp::image::BinaryImage;
use paremsp::unionfind::testing::partition_of;
use paremsp::unionfind::{HeEquivalence, MinUF, RankUF, RemSP, SizeUF, UnionFind};

/// Arbitrary small binary image: dimensions 1..=24, arbitrary pixels.
fn arb_image() -> impl Strategy<Value = BinaryImage> {
    (1usize..=24, 1usize..=24).prop_flat_map(|(w, h)| {
        proptest::collection::vec(proptest::bool::ANY, w * h)
            .prop_map(move |bits| BinaryImage::from_fn(w, h, |r, c| bits[r * w + c]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_algorithms_match_flood_fill(img in arb_image()) {
        use paremsp::core::algorithm::Numbering;
        // flood fill's raster numbering is the canonical form
        let raster = flood_fill_label(&img);
        let pair = Algorithm::Aremsp.run(&img);
        prop_assert_eq!(&pair.canonicalized(), &raster, "aremsp partition");
        for algo in Algorithm::all_sequential() {
            let out = algo.run(&img);
            let expected = match algo.numbering() {
                Numbering::Raster => &raster,
                Numbering::PairScan => &pair,
            };
            prop_assert_eq!(&out, expected, "{}", algo.name());
        }
    }

    #[test]
    fn paremsp_invariant_under_threads_and_merger(
        img in arb_image(),
        threads in 1usize..=9,
        cas in proptest::bool::ANY,
        stripes in 1usize..=64,
    ) {
        use paremsp::core::par::{paremsp_with, MergerKind, ParemspConfig};
        let cfg = ParemspConfig {
            threads,
            merger: if cas { MergerKind::Cas } else { MergerKind::Locked },
            lock_stripes: Some(stripes),
        };
        let (out, _) = paremsp_with(&img, &cfg);
        prop_assert_eq!(out, aremsp(&img));
    }

    #[test]
    fn labeling_is_a_valid_partition(img in arb_image()) {
        let labels = aremsp(&img);
        // component sizes partition the pixels
        let sizes = labels.component_sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), img.len());
        // labels are exactly 0..=num_components
        let max = labels.as_slice().iter().max().copied().unwrap_or(0);
        prop_assert!(max <= labels.num_components());
        for (l, &size) in sizes.iter().enumerate().skip(1) {
            prop_assert!(size > 0, "label {} empty", l);
        }
    }

    #[test]
    fn unionfind_variants_agree(
        n in 1u32..40,
        unions in proptest::collection::vec((0u32..40, 0u32..40), 0..80),
    ) {
        let unions: Vec<(u32, u32)> =
            unions.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let reference = partition_of::<RemSP>(n, &unions);
        prop_assert_eq!(&partition_of::<RankUF>(n, &unions), &reference);
        prop_assert_eq!(&partition_of::<SizeUF>(n, &unions), &reference);
        prop_assert_eq!(&partition_of::<MinUF>(n, &unions), &reference);
        prop_assert_eq!(&partition_of::<HeEquivalence>(n, &unions), &reference);
    }

    #[test]
    fn flatten_is_consecutive_and_order_preserving(
        n in 2u32..40,
        unions in proptest::collection::vec((1u32..40, 1u32..40), 0..60),
    ) {
        // element 0 reserved as background, as in CCL usage
        let unions: Vec<(u32, u32)> = unions
            .into_iter()
            .map(|(a, b)| (1 + a % (n - 1), 1 + b % (n - 1)))
            .collect();
        let mut uf = RemSP::new();
        for _ in 0..n {
            uf.make_set();
        }
        for &(x, y) in &unions {
            uf.union(x, y);
        }
        let k = uf.flatten();
        prop_assert_eq!(uf.resolve(0), 0);
        // final labels are exactly 1..=k and appear in first-member order
        let finals: Vec<u32> = (1..n).map(|x| uf.resolve(x)).collect();
        let mut seen_order = Vec::new();
        for &f in &finals {
            prop_assert!(f >= 1 && f <= k);
            if !seen_order.contains(&f) {
                seen_order.push(f);
            }
        }
        let expected: Vec<u32> = (1..=k).collect();
        prop_assert_eq!(seen_order, expected, "labels not in first-member order");
    }

    #[test]
    fn pbm_round_trip(img in arb_image()) {
        prop_assert_eq!(&pbm::read(&pbm::write_binary(&img)).unwrap(), &img);
        prop_assert_eq!(&pbm::read(&pbm::write_ascii(&img)).unwrap(), &img);
    }

    #[test]
    fn transpose_commutes_with_labeling(img in arb_image()) {
        // number of components is invariant under transposition
        let a = aremsp(&img).num_components();
        let b = aremsp(&img.transposed()).num_components();
        prop_assert_eq!(a, b);
    }
}
