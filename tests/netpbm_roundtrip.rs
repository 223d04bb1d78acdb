//! End-to-end pipeline: generate → serialize (Netpbm) → parse → label →
//! verify, across formats.

use paremsp::core::seq::aremsp;
use paremsp::core::verify::verify_labeling;
use paremsp::datasets::synth::landcover::{landcover, LandcoverParams};
use paremsp::datasets::synth::noise::bernoulli;
use paremsp::image::io::{pbm, pgm, ppm};
use paremsp::image::threshold::im2bw;
use paremsp::image::{Connectivity, GrayImage, RgbImage};

#[test]
fn binary_pipeline_through_pbm() {
    let img = bernoulli(97, 71, 0.4, 5);
    for bytes in [pbm::write_ascii(&img), pbm::write_binary(&img)] {
        let parsed = pbm::read(&bytes).expect("parse");
        assert_eq!(parsed, img);
        let labels = aremsp(&parsed);
        verify_labeling(&parsed, &labels, Connectivity::Eight).expect("valid labeling");
    }
}

#[test]
fn grayscale_pipeline_through_pgm() {
    let gray = landcover(120, 90, LandcoverParams::default(), 9);
    // promote the binary mask to a grayscale image (0 / 255)
    let gray_img = GrayImage::from_fn(120, 90, |r, c| gray.get(r, c) * 255);
    for bytes in [pgm::write_ascii(&gray_img), pgm::write_binary(&gray_img)] {
        let parsed = pgm::read(&bytes).expect("parse");
        assert_eq!(parsed, gray_img);
        let bw = im2bw(&parsed, 0.5);
        assert_eq!(bw, gray);
    }
}

#[test]
fn color_pipeline_matches_paper_figure3() {
    // RGB scene -> rgb2gray -> im2bw(0.5) -> label, with PPM round trips
    let rgb = RgbImage::from_fn(80, 60, |r, c| {
        if (r / 10 + c / 10) % 2 == 0 {
            [250, 240, 230]
        } else {
            [20, 30, 40]
        }
    });
    let bytes = ppm::write_binary(&rgb);
    let parsed = ppm::read(&bytes).expect("parse");
    assert_eq!(parsed, rgb);
    let bw = im2bw(&parsed.to_gray(), 0.5);
    // bright cells are foreground, dark cells background
    assert_eq!(bw.get(0, 0), 1);
    assert_eq!(bw.get(0, 10), 0);
    let labels = aremsp(&bw);
    // 8-connectivity joins diagonal bright cells into one component
    assert_eq!(labels.num_components(), 1);
}

#[test]
fn label_colormap_is_parseable_and_consistent() {
    let img = bernoulli(50, 40, 0.5, 13);
    let labels = aremsp(&img);
    let bytes = ppm::write_label_colormap(labels.as_slice(), 50, 40);
    let rendered = ppm::read(&bytes).expect("parse");
    // same label -> same color; background -> black
    for r in 0..40 {
        for c in 0..50 {
            if labels.get(r, c) == 0 {
                assert_eq!(rendered.get(r, c), [0, 0, 0]);
            }
        }
    }
}
