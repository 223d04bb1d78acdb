//! Synthetic binary-image generators.
//!
//! All generators are deterministic in their seed, so every benchmark and
//! test is reproducible. Generators that model grayscale acquisition
//! (landcover, some textures) produce a [`ccl_image::GrayImage`] first and
//! binarize it through [`ccl_image::threshold::im2bw`] — the same pipeline
//! the paper applies to its datasets.

pub mod adversarial;
pub mod blobs;
pub mod landcover;
pub mod noise;
pub mod shapes;
pub mod stream;
pub mod texture;

use ccl_image::BinaryImage;

/// Number of generator families [`family_image`] draws from.
#[doc(hidden)]
pub const FAMILIES: usize = 15;

/// One image from generator family `family` (`0..FAMILIES`): noise,
/// landcover, blobs, shapes, text, the textures and the adversarial
/// patterns, sized `w × h` (the spiral is square by construction). The
/// out-of-core engines' property suites all draw from here, so each
/// covers the same families. Test support, not a dataset API: hidden
/// from the docs.
#[doc(hidden)]
pub fn family_image(family: usize, w: usize, h: usize, seed: u64) -> BinaryImage {
    let params = blobs::BlobParams {
        coverage: 0.35,
        min_radius: 1,
        max_radius: 4,
    };
    let lc = landcover::LandcoverParams {
        base_scale: 6.0,
        octaves: 3,
        persistence: 0.5,
    };
    match family {
        0 => noise::bernoulli(w, h, 0.45, seed),
        1 => landcover::landcover(w, h, lc, seed),
        2 => blobs::blob_field(w, h, params, seed),
        3 => shapes::shape_scene(w, h, 1 + (seed % 7) as usize, seed),
        4 => shapes::text_page(w, h, 1, seed),
        5 => texture::checkerboard(w, h, 1 + (seed % 3) as usize),
        6 => texture::stripes(w, h, 5, 2, (1, 1)),
        7 => texture::grating(w, h, 0.31, 0.17, 0.4),
        8 => texture::rings(w, h, 4.0),
        9 => adversarial::serpentine(w, h),
        10 => adversarial::comb(w, h, h / 2),
        11 => adversarial::fine_checkerboard(w, h),
        12 => adversarial::hstripes(w, h),
        13 => adversarial::vstripes(w, h),
        _ => adversarial::spiral(w.max(3)),
    }
}

/// A deterministic 64-bit mix used by the hash-based generators
/// (SplitMix64 finalizer).
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hash of a lattice coordinate to a uniform `[0, 1)` value.
#[inline]
pub(crate) fn lattice_value(x: i64, y: i64, seed: u64) -> f64 {
    let h = mix64(seed ^ (x as u64).wrapping_mul(0x8DA6B343) ^ (y as u64).wrapping_mul(0xD8163841));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
        // avalanche sanity: flipping one input bit flips many output bits
        let a = mix64(0x1234);
        let b = mix64(0x1235);
        assert!((a ^ b).count_ones() > 10);
    }

    #[test]
    fn lattice_values_in_unit_interval() {
        for x in -5..5 {
            for y in -5..5 {
                let v = lattice_value(x, y, 7);
                assert!((0.0..1.0).contains(&v), "({x},{y}) -> {v}");
            }
        }
    }

    #[test]
    fn lattice_depends_on_seed_and_coords() {
        assert_ne!(lattice_value(1, 2, 3), lattice_value(2, 1, 3));
        assert_ne!(lattice_value(1, 2, 3), lattice_value(1, 2, 4));
        assert_eq!(lattice_value(1, 2, 3), lattice_value(1, 2, 3));
    }
}
