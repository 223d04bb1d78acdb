//! Streamed variants of the synthetic generators — row bands on demand.
//!
//! The whole-image generators materialize `width × height` pixels before a
//! labeler sees the first row. For the out-of-core pipeline (`ccl-stream`)
//! the interesting images are *taller than memory*, so these variants
//! produce the identical pixel stream a band of rows at a time: every
//! stream here is tested to match its whole-image counterpart bit for bit.
//!
//! Land-cover fBm is a pure function of `(row, col, seed)` and streams
//! trivially; the Bernoulli noise carries its RNG across bands, drawing
//! samples in the same row-major order as [`super::noise::bernoulli`].
//! Placement-based generators (blob fields, shape scenes) are
//! intentionally absent — their shape lists are global state; stream them
//! by materializing once and replaying (`ccl-stream`'s in-memory source).

use ccl_image::threshold::im2bw;
use ccl_image::{BinaryImage, GrayImage};
use rand::{Rng, SeedableRng};

use super::landcover::{fbm, LandcoverParams};

/// Boxed row filler: writes the 0/1 pixels of global row `r` into the
/// provided buffer.
type RowFill = Box<dyn FnMut(usize, &mut [u8]) + Send>;

/// A pull-based row-band generator: a binary image of known dimensions
/// delivered top-to-bottom in bands of caller-chosen height, holding only
/// the band being built.
pub struct RowStream {
    width: usize,
    height: usize,
    produced: usize,
    /// Fills one row buffer for global row index `r`. Called with strictly
    /// increasing `r` — stateful generators rely on that.
    fill: RowFill,
}

impl RowStream {
    /// Wraps a row-filling closure. `fill(r, row)` must write the 0/1
    /// pixels of global row `r`; it is invoked with strictly increasing
    /// row indices.
    pub fn new(
        width: usize,
        height: usize,
        fill: impl FnMut(usize, &mut [u8]) + Send + 'static,
    ) -> Self {
        RowStream {
            width,
            height,
            produced: 0,
            fill: Box::new(fill),
        }
    }

    /// Image width (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total image height (rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Rows not yet delivered.
    pub fn rows_remaining(&self) -> usize {
        self.height - self.produced
    }

    /// Generates the next band of at most `max_rows` rows; `None` once the
    /// image is exhausted.
    ///
    /// # Panics
    /// Panics when `max_rows` is 0.
    pub fn next_band(&mut self, max_rows: usize) -> Option<BinaryImage> {
        assert!(max_rows > 0, "band height must be positive");
        let rows = max_rows.min(self.rows_remaining());
        if rows == 0 {
            return None;
        }
        let mut pixels = vec![0u8; rows * self.width];
        for (i, row) in pixels.chunks_mut(self.width.max(1)).enumerate() {
            if self.width > 0 {
                (self.fill)(self.produced + i, row);
            }
        }
        self.produced += rows;
        Some(
            BinaryImage::from_raw(self.width, rows, pixels)
                .expect("row fillers produce 0/1 pixels"),
        )
    }
}

impl std::fmt::Debug for RowStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RowStream({}x{}, {} rows produced)",
            self.width, self.height, self.produced
        )
    }
}

/// Streamed [`super::noise::bernoulli`]: identical pixel stream, RNG state
/// carried across bands.
pub fn bernoulli_stream(width: usize, height: usize, density: f64, seed: u64) -> RowStream {
    let density = density.clamp(0.0, 1.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    RowStream::new(width, height, move |_, row| {
        for px in row.iter_mut() {
            *px = u8::from(rng.random::<f64>() < density);
        }
    })
}

/// Streamed [`super::landcover::landcover`]: the same fBm → `im2bw(0.5)`
/// pipeline, one row of grayscale at a time.
pub fn landcover_stream(
    width: usize,
    height: usize,
    params: LandcoverParams,
    seed: u64,
) -> RowStream {
    RowStream::new(width, height, move |r, row| {
        let gray = GrayImage::from_fn(width, 1, |_, c| (fbm(r, c, &params, seed) * 255.0) as u8);
        row.copy_from_slice(im2bw(&gray, 0.5).as_slice());
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::landcover::landcover;
    use crate::synth::noise::bernoulli;

    fn assert_stream_matches(mut stream: RowStream, full: &BinaryImage, band: usize) {
        assert_eq!(stream.width(), full.width());
        assert_eq!(stream.height(), full.height());
        let mut r0 = 0;
        while let Some(b) = stream.next_band(band) {
            for r in 0..b.height() {
                assert_eq!(b.row(r), full.row(r0 + r), "row {} (band {band})", r0 + r);
            }
            r0 += b.height();
        }
        assert_eq!(r0, full.height());
    }

    #[test]
    fn bernoulli_stream_matches_full_generator_across_band_heights() {
        let full = bernoulli(17, 23, 0.4, 99);
        for band in [1, 2, 3, 7, 23, 100] {
            assert_stream_matches(bernoulli_stream(17, 23, 0.4, 99), &full, band);
        }
    }

    #[test]
    fn landcover_stream_matches_full_generator() {
        let params = LandcoverParams {
            base_scale: 8.0,
            octaves: 3,
            persistence: 0.5,
        };
        let full = landcover(24, 18, params, 7);
        for band in [1, 5, 18] {
            assert_stream_matches(landcover_stream(24, 18, params, 7), &full, band);
        }
    }

    #[test]
    fn exhausted_stream_returns_none() {
        let mut s = RowStream::new(4, 2, |_, row| row.fill(1));
        assert!(s.next_band(10).is_some());
        assert!(s.next_band(10).is_none());
        assert_eq!(s.rows_remaining(), 0);
    }

    #[test]
    fn zero_height_stream_is_immediately_empty() {
        let mut s = RowStream::new(5, 0, |_, row| row.fill(1));
        assert!(s.next_band(1).is_none());
    }

    #[test]
    fn debug_renders_progress() {
        let mut s = RowStream::new(3, 4, |_, _| {});
        s.next_band(2);
        assert_eq!(format!("{s:?}"), "RowStream(3x4, 2 rows produced)");
    }
}
