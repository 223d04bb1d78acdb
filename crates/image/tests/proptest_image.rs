//! Property-based tests for the image substrate.

use proptest::prelude::*;

use ccl_image::io::{pbm, pgm, ppm};
use ccl_image::threshold::im2bw;
use ccl_image::{BinaryImage, GrayImage, RgbImage, RunImage};

fn arb_binary() -> impl Strategy<Value = BinaryImage> {
    (1usize..=20, 1usize..=20).prop_flat_map(|(w, h)| {
        proptest::collection::vec(proptest::bool::ANY, w * h)
            .prop_map(move |bits| BinaryImage::from_fn(w, h, |r, c| bits[r * w + c]))
    })
}

fn arb_gray() -> impl Strategy<Value = GrayImage> {
    (1usize..=16, 1usize..=16).prop_flat_map(|(w, h)| {
        proptest::collection::vec(proptest::num::u8::ANY, w * h)
            .prop_map(move |px| GrayImage::from_raw(w, h, px).unwrap())
    })
}

fn arb_rgb() -> impl Strategy<Value = RgbImage> {
    (1usize..=12, 1usize..=12).prop_flat_map(|(w, h)| {
        proptest::collection::vec(proptest::num::u8::ANY, w * h * 3)
            .prop_map(move |px| RgbImage::from_raw(w, h, px).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pgm_round_trips(img in arb_gray()) {
        prop_assert_eq!(&pgm::read(&pgm::write_binary(&img)).unwrap(), &img);
        prop_assert_eq!(&pgm::read(&pgm::write_ascii(&img)).unwrap(), &img);
    }

    #[test]
    fn ppm_round_trips(img in arb_rgb()) {
        prop_assert_eq!(&ppm::read(&ppm::write_binary(&img)).unwrap(), &img);
        prop_assert_eq!(&ppm::read(&ppm::write_ascii(&img)).unwrap(), &img);
    }

    #[test]
    fn pbm_round_trips(img in arb_binary()) {
        prop_assert_eq!(&pbm::read(&pbm::write_binary(&img)).unwrap(), &img);
    }

    #[test]
    fn runs_partition_foreground(img in arb_binary()) {
        let runs = RunImage::from_binary(&img);
        prop_assert_eq!(runs.foreground(), img.count_foreground());
        prop_assert_eq!(&runs.to_binary(), &img);
        // runs within a row are disjoint, ordered, maximal
        for r in 0..img.height() {
            let row_runs = runs.row_runs(r);
            for pair in row_runs.windows(2) {
                prop_assert!(pair[0].end < pair[1].start, "not maximal/ordered");
            }
        }
    }

    #[test]
    fn im2bw_is_monotone_in_level(img in arb_gray(), a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let at_lo = im2bw(&img, lo);
        let at_hi = im2bw(&img, hi);
        // raising the level can only turn foreground off
        for (p_lo, p_hi) in at_lo.as_slice().iter().zip(at_hi.as_slice()) {
            prop_assert!(p_hi <= p_lo);
        }
    }

    #[test]
    fn to_gray_bounded_by_channel_extremes(img in arb_rgb()) {
        let gray = img.to_gray();
        for r in 0..img.height() {
            for c in 0..img.width() {
                let [red, green, blue] = img.get(r, c);
                let lo = red.min(green).min(blue);
                let hi = red.max(green).max(blue);
                let y = gray.get(r, c);
                prop_assert!(y >= lo.saturating_sub(1) && y <= hi.saturating_add(1));
            }
        }
    }

    #[test]
    fn transpose_involution(img in arb_binary()) {
        prop_assert_eq!(&img.transposed().transposed(), &img);
    }

    #[test]
    fn inversion_involution_and_density(img in arb_binary()) {
        let inv = img.inverted();
        prop_assert_eq!(inv.count_foreground(), img.len() - img.count_foreground());
        prop_assert_eq!(&inv.inverted(), &img);
    }
}
