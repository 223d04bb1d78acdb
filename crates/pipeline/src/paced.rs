//! [`PacedRows`] — the device-paced source wrapper.
//!
//! Real out-of-core inputs are rarely CPU-bound: the next band waits on
//! a disk seek, an object-store GET or a sensor readout, and the wall
//! time lost there is *latency*, not compute. These wrappers impose that
//! latency explicitly — each pull blocks the configured duration before
//! delivering — which makes two things possible (for tile rows too: a
//! [`GridSource`](ccl_stream::GridSource) over a `PacedRows` stalls once
//! per tile row):
//!
//! * **honest demos/benches** of the prefetch win: hiding device latency
//!   behind labeling needs no spare core, so `pipeline_demo` shows the
//!   overlap on any machine, single-core containers included;
//! * **deterministic tests** of overlap behaviour, with the stall
//!   injected exactly where a slow decoder would stall.

use std::time::Duration;

use ccl_image::BinaryImage;
use ccl_stream::{RowSource, StreamError};

/// A [`RowSource`] that blocks `latency` before every delivered band —
/// the band is "fetched from a device" rather than computed. Once the
/// stream has ended or failed, subsequent pulls pass through unpaced
/// (the stall on the failing pull itself is unavoidable — the "device"
/// must be waited on to learn it failed).
pub struct PacedRows<S> {
    inner: S,
    latency: Duration,
    done: bool,
}

impl<S: RowSource> PacedRows<S> {
    /// Paces `inner` at one `latency` stall per band.
    pub fn new(inner: S, latency: Duration) -> Self {
        PacedRows {
            inner,
            latency,
            done: false,
        }
    }

    /// Consumes the wrapper, returning the wrapped source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: RowSource> RowSource for PacedRows<S> {
    fn width(&self) -> usize {
        self.inner.width()
    }

    fn rows_remaining(&self) -> Option<usize> {
        self.inner.rows_remaining()
    }

    fn next_band(&mut self, max_rows: usize) -> Result<Option<BinaryImage>, StreamError> {
        if self.done {
            return self.inner.next_band(max_rows);
        }
        if self.inner.rows_remaining() != Some(0) {
            std::thread::sleep(self.latency);
        }
        let out = self.inner.next_band(max_rows);
        if matches!(out, Ok(None) | Err(_)) {
            self.done = true;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccl_stream::MemorySource;
    use ccl_tiles::{GridSource, TileSource};
    use std::time::Instant;

    #[test]
    fn pacing_is_transparent_to_the_data() {
        let img = BinaryImage::from_fn(6, 9, |r, c| (r + c) % 2 == 0);
        let mut plain = MemorySource::new(img.clone());
        let mut paced = PacedRows::new(MemorySource::new(img.clone()), Duration::from_micros(100));
        loop {
            let a = plain.next_band(4).unwrap();
            let b = paced.next_band(4).unwrap();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        let mut paced_tiles = GridSource::new(
            PacedRows::new(MemorySource::new(img.clone()), Duration::from_micros(100)),
            3,
            4,
        );
        let mut plain_tiles = GridSource::from_image(&img, 3, 4);
        loop {
            let a = plain_tiles.next_tile_row().unwrap();
            let b = paced_tiles.next_tile_row().unwrap();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pacing_actually_stalls() {
        let img = BinaryImage::ones(4, 8);
        let mut paced = PacedRows::new(MemorySource::new(img), Duration::from_millis(2));
        let t = Instant::now();
        let mut bands = 0;
        while paced.next_band(2).unwrap().is_some() {
            bands += 1;
        }
        assert_eq!(bands, 4);
        assert!(t.elapsed() >= Duration::from_millis(8), "4 stalls of 2 ms");
    }

    #[test]
    fn exhausted_stream_polls_unpaced() {
        // an unknown-length source: rows_remaining() is None, so the
        // wrapper must learn exhaustion from the pull itself
        struct TwoBands(usize);
        impl RowSource for TwoBands {
            fn width(&self) -> usize {
                2
            }
            fn rows_remaining(&self) -> Option<usize> {
                None
            }
            fn next_band(
                &mut self,
                _: usize,
            ) -> Result<Option<BinaryImage>, ccl_stream::StreamError> {
                if self.0 == 0 {
                    return Ok(None);
                }
                self.0 -= 1;
                Ok(Some(BinaryImage::ones(2, 1)))
            }
        }
        let mut paced = PacedRows::new(TwoBands(2), Duration::from_millis(20));
        while paced.next_band(1).unwrap().is_some() {}
        let t = Instant::now();
        for _ in 0..50 {
            assert!(paced.next_band(1).unwrap().is_none());
        }
        assert!(
            t.elapsed() < Duration::from_millis(20),
            "post-exhaustion polls must not stall"
        );
    }
}
