//! Cross-crate integration: every labeling algorithm must produce
//! bit-identical output on every synthetic generator family.

use paremsp::core::seq::flood_fill_label;
use paremsp::core::Algorithm;
use paremsp::datasets::synth::adversarial::{comb, fine_checkerboard, serpentine, spiral};
use paremsp::datasets::synth::blobs::{blob_field, BlobParams};
use paremsp::datasets::synth::landcover::{landcover, LandcoverParams};
use paremsp::datasets::synth::noise::bernoulli;
use paremsp::datasets::synth::shapes::{shape_scene, text_page};
use paremsp::datasets::synth::texture::{checkerboard, grating, rings, stripes};
use paremsp::image::BinaryImage;

fn gallery() -> Vec<(String, BinaryImage)> {
    let mut out: Vec<(String, BinaryImage)> = vec![
        ("spiral".into(), spiral(61)),
        ("serpentine".into(), serpentine(57, 44)),
        ("comb".into(), comb(63, 41, 20)),
        ("fine-checker".into(), fine_checkerboard(49, 37)),
        ("stripes".into(), stripes(71, 53, 7, 3, (1, 1))),
        ("checker4".into(), checkerboard(64, 48, 4)),
        ("grating".into(), grating(80, 60, 0.3, 0.4, 0.2)),
        ("rings".into(), rings(66, 66, 7.0)),
        ("shapes".into(), shape_scene(90, 70, 25, 5)),
        ("text".into(), text_page(96, 72, 1, 6)),
        (
            "blobs".into(),
            blob_field(
                100,
                80,
                BlobParams {
                    coverage: 0.35,
                    min_radius: 2,
                    max_radius: 9,
                },
                7,
            ),
        ),
        (
            "landcover".into(),
            landcover(
                96,
                64,
                LandcoverParams {
                    base_scale: 16.0,
                    octaves: 4,
                    persistence: 0.5,
                },
                8,
            ),
        ),
    ];
    for (i, &density) in [0.05, 0.2, 0.45, 0.6, 0.95].iter().enumerate() {
        out.push((
            format!("noise-{density}"),
            bernoulli(83, 61, density, 100 + i as u64),
        ));
    }
    out
}

#[test]
fn all_sequential_algorithms_agree_on_gallery() {
    use paremsp::core::algorithm::Numbering;
    for (name, img) in gallery() {
        // flood fill's numbering is canonical (raster order)
        let raster = flood_fill_label(&img);
        let pair = Algorithm::Aremsp.run(&img);
        assert_eq!(
            raster.canonicalized(),
            pair.canonicalized(),
            "aremsp partition on {name}"
        );
        for algo in Algorithm::all_sequential() {
            let out = algo.run(&img);
            match algo.numbering() {
                Numbering::Raster => {
                    assert_eq!(out, raster, "{} on {name}", algo.name())
                }
                Numbering::PairScan => {
                    assert_eq!(out, pair, "{} on {name}", algo.name())
                }
            }
        }
    }
}

#[test]
fn paremsp_agrees_on_gallery_across_thread_counts() {
    for (name, img) in gallery() {
        // same scan family: PAREMSP must equal AREMSP bit for bit
        let reference = Algorithm::Aremsp.run(&img);
        for threads in [1, 2, 3, 4, 8, 24] {
            assert_eq!(
                Algorithm::Paremsp(threads).run(&img),
                reference,
                "paremsp({threads}) on {name}"
            );
        }
        assert_eq!(
            reference.canonicalized(),
            flood_fill_label(&img),
            "partition on {name}"
        );
    }
}

#[test]
fn verify_labeling_accepts_every_algorithm_output() {
    use paremsp::core::verify::verify_labeling;
    use paremsp::image::Connectivity;
    for (name, img) in gallery().into_iter().take(6) {
        for algo in [Algorithm::Aremsp, Algorithm::Paremsp(4)] {
            let labels = algo.run(&img);
            verify_labeling(&img, &labels, Connectivity::Eight)
                .unwrap_or_else(|e| panic!("{} on {name}: {e}", algo.name()));
        }
    }
}

#[test]
fn component_statistics_are_consistent() {
    for (name, img) in gallery().into_iter().take(8) {
        let labels = Algorithm::Aremsp.run(&img);
        let sizes = labels.component_sizes();
        assert_eq!(
            sizes.iter().sum::<usize>(),
            img.len(),
            "{name}: sizes partition the image"
        );
        assert_eq!(sizes[0], img.len() - img.count_foreground(), "{name}");
        let boxes = labels.bounding_boxes();
        assert_eq!(boxes.len() as u32, labels.num_components(), "{name}");
        for (i, b) in boxes.iter().enumerate() {
            assert!(b.0 <= b.2 && b.1 <= b.3, "{name}: box {i} degenerate");
            let area = (b.2 - b.0 + 1) * (b.3 - b.1 + 1);
            assert!(
                sizes[i + 1] <= area,
                "{name}: component {} larger than its bbox",
                i + 1
            );
        }
    }
}
