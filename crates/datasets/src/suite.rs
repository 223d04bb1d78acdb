//! The paper's four dataset families, as synthetic stand-ins.
//!
//! * [`aerial`], [`texture`], [`miscellaneous`] — the three USC-SIPI
//!   families; every image ≤ 1 Mpixel ("1 MB or less" of binary raster),
//! * [`nlcd`] — six land-cover images with the Table III sizes
//!   (12 … 465.20 MB), scaled by a `scale` factor so benchmarks can
//!   trade fidelity for runtime (`scale = 1.0` reproduces the full
//!   sizes; the default harness scale is 0.05).

use ccl_image::BinaryImage;

use crate::synth::blobs::{blob_field, BlobParams};
use crate::synth::landcover::{landcover, LandcoverParams};
use crate::synth::noise::bernoulli;
use crate::synth::shapes::{shape_scene, text_page};
use crate::synth::texture::{checkerboard, grating, rings, stripes};

/// One named benchmark image.
pub struct SuiteImage {
    /// Image name as reported in tables (e.g. `aerial-3`, `image 6`).
    pub name: String,
    /// The binary image.
    pub image: BinaryImage,
}

impl SuiteImage {
    /// Raster size in megabytes (1 byte/pixel, the paper's convention).
    pub fn size_mb(&self) -> f64 {
        self.image.raster_bytes() as f64 / 1.0e6
    }
}

/// A dataset family (one row group of Tables II/IV).
pub struct Family {
    /// Family name: `Aerial`, `Texture`, `Miscellaneous` or `NLCD`.
    pub name: &'static str,
    /// The images, in table order.
    pub images: Vec<SuiteImage>,
}

/// The Table III image sizes in MB (1 byte/pixel).
pub const NLCD_SIZES_MB: [f64; 6] = [12.0, 33.0, 37.31, 116.30, 132.03, 465.20];

/// Aerial stand-in: object fields of random ellipses at varying coverage
/// and object size; six images from 0.26 to 1.05 Mpixel.
pub fn aerial() -> Family {
    let specs: [(usize, f64, usize, usize); 6] = [
        (512, 0.15, 2, 10),
        (640, 0.25, 3, 16),
        (768, 0.35, 2, 24),
        (896, 0.30, 4, 32),
        (960, 0.45, 2, 12),
        (1024, 0.20, 6, 48),
    ];
    let images = specs
        .iter()
        .enumerate()
        .map(|(i, &(side, coverage, min_r, max_r))| SuiteImage {
            name: format!("aerial-{}", i + 1),
            image: blob_field(
                side,
                side,
                BlobParams {
                    coverage,
                    min_radius: min_r,
                    max_radius: max_r,
                },
                0xAE01 + i as u64,
            ),
        })
        .collect();
    Family {
        name: "Aerial",
        images,
    }
}

/// Texture stand-in: six periodic / quasi-periodic patterns.
pub fn texture() -> Family {
    let images = vec![
        SuiteImage {
            name: "texture-1".into(),
            image: stripes(768, 768, 8, 4, (1, 1)),
        },
        SuiteImage {
            name: "texture-2".into(),
            image: checkerboard(832, 832, 3),
        },
        SuiteImage {
            name: "texture-3".into(),
            image: grating(896, 896, 0.23, 0.31, 0.7),
        },
        SuiteImage {
            name: "texture-4".into(),
            image: rings(960, 960, 9.0),
        },
        SuiteImage {
            name: "texture-5".into(),
            image: stripes(1024, 1024, 16, 7, (2, 1)),
        },
        SuiteImage {
            name: "texture-6".into(),
            image: grating(1024, 1024, 0.11, 0.47, 0.0),
        },
    ];
    Family {
        name: "Texture",
        images,
    }
}

/// Miscellaneous stand-in: shape scenes, document pages and noise.
pub fn miscellaneous() -> Family {
    let images = vec![
        SuiteImage {
            name: "misc-1".into(),
            image: shape_scene(384, 384, 60, 0x301),
        },
        SuiteImage {
            name: "misc-2".into(),
            image: text_page(512, 384, 1, 0x302),
        },
        SuiteImage {
            name: "misc-3".into(),
            image: bernoulli(448, 448, 0.35, 0x303),
        },
        SuiteImage {
            name: "misc-4".into(),
            image: shape_scene(512, 512, 140, 0x304),
        },
        SuiteImage {
            name: "misc-5".into(),
            image: text_page(640, 512, 2, 0x305),
        },
        SuiteImage {
            name: "misc-6".into(),
            image: bernoulli(512, 512, 0.6, 0x306),
        },
    ];
    Family {
        name: "Miscellaneous",
        images,
    }
}

/// Dimensions (width, height) of NLCD image `index` (1-based) at `scale`.
pub fn nlcd_dims(index: usize, scale: f64) -> (usize, usize) {
    assert!((1..=NLCD_SIZES_MB.len()).contains(&index), "index 1..=6");
    assert!(scale > 0.0, "scale must be positive");
    let pixels = (NLCD_SIZES_MB[index - 1] * 1.0e6 * scale).max(4.0);
    // Mildly wide aspect (4:3), like geographic rasters.
    let height = (pixels / (4.0 / 3.0)).sqrt().round().max(2.0) as usize;
    let width = (pixels / height as f64).round().max(2.0) as usize;
    (width, height)
}

/// One NLCD-like image (1-based index into Table III) at the given scale.
pub fn nlcd_image(index: usize, scale: f64) -> SuiteImage {
    let (width, height) = nlcd_dims(index, scale);
    // feature size grows with the raster so structure stays map-like
    let base_scale = (width.min(height) as f64 / 24.0).max(8.0);
    SuiteImage {
        name: format!("image {index}"),
        image: landcover(
            width,
            height,
            LandcoverParams {
                base_scale,
                octaves: 5,
                persistence: 0.55,
            },
            0x41CD + index as u64,
        ),
    }
}

/// The six-image NLCD family at the given scale.
pub fn nlcd(scale: f64) -> Family {
    Family {
        name: "NLCD",
        images: (1..=NLCD_SIZES_MB.len())
            .map(|i| nlcd_image(i, scale))
            .collect(),
    }
}

/// The three small (≤ 1 Mpixel) families of Figure 4 / Tables II & IV.
pub fn small_families() -> Vec<Family> {
    vec![aerial(), texture(), miscellaneous()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_families_within_one_megapixel() {
        for family in small_families() {
            assert_eq!(family.images.len(), 6);
            for img in &family.images {
                assert!(
                    img.image.len() <= 1 << 20,
                    "{} has {} pixels",
                    img.name,
                    img.image.len()
                );
                assert!(img.image.count_foreground() > 0, "{} empty", img.name);
            }
        }
    }

    #[test]
    fn nlcd_sizes_match_table3() {
        for (i, &mb) in NLCD_SIZES_MB.iter().enumerate() {
            let (w, h) = nlcd_dims(i + 1, 0.01);
            let actual_mb = (w * h) as f64 / 1.0e6 / 0.01;
            assert!(
                (actual_mb - mb).abs() / mb < 0.05,
                "image {}: target {mb} MB, got {actual_mb:.2} MB",
                i + 1
            );
        }
    }

    #[test]
    fn nlcd_family_is_ordered_by_size() {
        let fam = nlcd(0.002);
        for pair in fam.images.windows(2) {
            assert!(pair[0].image.len() <= pair[1].image.len());
        }
        assert_eq!(fam.images[5].name, "image 6");
    }

    #[test]
    fn suite_images_are_deterministic() {
        let a = aerial();
        let b = aerial();
        assert_eq!(a.images[0].image, b.images[0].image);
        let n1 = nlcd_image(1, 0.005);
        let n2 = nlcd_image(1, 0.005);
        assert_eq!(n1.image, n2.image);
    }

    #[test]
    fn size_mb_reports_raster_bytes() {
        let img = SuiteImage {
            name: "t".into(),
            image: BinaryImage::zeros(1000, 1000),
        };
        assert!((img.size_mb() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "index")]
    fn nlcd_index_out_of_range() {
        nlcd_dims(7, 1.0);
    }
}
