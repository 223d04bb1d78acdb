//! Prefetching row sources: overlap band **decode** with labeling.
//!
//! Band and tile-row *generation* can dominate end-to-end throughput
//! (`stream_demo`'s mode table shows it): the labeler sits idle while the
//! next band decodes, then the source sits idle while the band labels.
//! Two [`RowSource`] adapters close that gap; both compose with every
//! driver unchanged, tile grids included (a tile row is a windowed band):
//!
//! * [`PrefetchRows`] moves the wrapped source onto a worker thread and
//!   hands bands through a bounded double buffer (configurable depth,
//!   backpressure, clean shutdown on drop), so
//!   [`GridSource`](crate::GridSource)`::new(PrefetchRows::with_depth(src, th, depth), tw, th)`
//!   decodes tile rows one thread ahead;
//! * [`PacedRows`] imposes a configurable per-pull latency (per tile row
//!   under a `GridSource`), modelling the disk/network/sensor stalls that
//!   make real decode generation-bound — and making the overlap win
//!   measurable on any machine, since hiding *latency* needs no spare
//!   core.
//!
//! Stacked under a driver run with [`StripConfig::pipelined`](crate::StripConfig::pipelined),
//! which overlaps unit *k + 1*'s scan with unit *k*'s merge, they form a
//! three-stage pipeline — decode ∥ scan ∥ merge/spill — with output
//! bit-identical to the synchronous path.
//!
//! Failures are typed, never hangs: a source error behind a prefetcher
//! surfaces as itself; a *panicking* source behind a prefetcher surfaces
//! as [`StreamError::Worker`] with the panic message, like a panicking
//! scan stage of the pipelined driver loop.
//!
//! ## Example
//!
//! ```
//! use ccl_datasets::synth::stream::landcover_stream;
//! use ccl_datasets::synth::landcover::LandcoverParams;
//! use ccl_stream::{analyze_stream, PrefetchRows, StripConfig};
//!
//! // fBm land cover is expensive to *generate*: prefetching decodes the
//! // next band while the labeler works on the current one.
//! let params = LandcoverParams { base_scale: 6.0, octaves: 3, persistence: 0.5 };
//! let source = landcover_stream(64, 512, params, 42);
//! let mut prefetched = PrefetchRows::new(source, 64);
//! let (components, stats) =
//!     analyze_stream(&mut prefetched, 64, StripConfig::default()).unwrap();
//! assert_eq!(stats.components as usize, components.len());
//! assert_eq!(stats.rows, 512);
//! ```

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use ccl_image::BinaryImage;

use crate::error::StreamError;
use crate::source::RowSource;

/// Moves a [`RowSource`] onto a worker thread and hands its bands to the
/// consumer through a bounded channel, so band *generation/decode*
/// overlaps band *labeling*. Implements [`RowSource`] itself, so the
/// drivers (`label_stream`, `analyze_stream`) and `GridSource` windowing
/// compose unchanged.
///
/// * **Backpressure**: the worker pulls at most `depth` bands ahead
///   (default 2 — a double buffer), then blocks until the consumer
///   catches up, so residency grows by at most `depth` bands.
/// * **Shutdown**: dropping the adapter disconnects the channel; the
///   worker's next send fails and the thread exits (joined in `Drop`) —
///   a partially consumed stream never leaks a thread.
/// * **Errors**: a band the source fails to produce surfaces to the
///   consumer as the source's own [`StreamError`]; a *panicking* source
///   is caught at the join and surfaces as [`StreamError::Worker`] —
///   never a hang, never a lost error.
pub struct PrefetchRows {
    width: usize,
    rows_remaining: Option<usize>,
    /// Prefetched bands; `None` once disconnected (drop).
    rx: Option<mpsc::Receiver<Result<BinaryImage, StreamError>>>,
    /// The worker thread, until joined.
    handle: Option<JoinHandle<()>>,
    /// A delivered band the consumer asked for fewer rows of, and the
    /// first row not yet handed out: each pull crops only its own rows.
    pending: Option<(BinaryImage, usize)>,
    /// Set once the stream ended or failed: it then reads as ended.
    poisoned: bool,
}

impl PrefetchRows {
    /// Double-buffered prefetcher (`depth` 2) pulling `band_rows`-row
    /// bands.
    ///
    /// # Panics
    /// Panics when `band_rows` is 0.
    pub fn new<S: RowSource + Send + 'static>(source: S, band_rows: usize) -> Self {
        Self::with_depth(source, band_rows, 2)
    }

    /// Prefetcher with an explicit queue depth (≥ 1): the worker runs at
    /// most `depth` bands ahead of the consumer.
    ///
    /// # Panics
    /// Panics when `band_rows` or `depth` is 0.
    pub fn with_depth<S: RowSource + Send + 'static>(
        mut source: S,
        band_rows: usize,
        depth: usize,
    ) -> Self {
        assert!(band_rows > 0, "band height must be positive");
        assert!(depth > 0, "prefetch depth must be positive");
        let width = source.width();
        let rows_remaining = source.rows_remaining();
        let (tx, rx) = mpsc::sync_channel(depth);
        let worker = move || loop {
            match source.next_band(band_rows) {
                Ok(Some(band)) => {
                    if tx.send(Ok(band)).is_err() {
                        break; // consumer dropped: clean shutdown
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = tx.send(Err(e));
                    break;
                }
            }
        };
        let handle = std::thread::Builder::new()
            .name("ccl-prefetch-rows".to_string())
            .spawn(worker)
            .expect("spawn prefetch worker");
        PrefetchRows {
            width,
            rows_remaining,
            rx: Some(rx),
            handle: Some(handle),
            pending: None,
            poisoned: false,
        }
    }

    /// Joins the worker once it hung up (cleanly or by panicking): a
    /// panic comes back as [`StreamError::Worker`], once.
    fn join(&mut self) -> Result<(), StreamError> {
        match self.handle.take() {
            Some(h) => h.join().map_err(|p| StreamError::worker_panic(p.as_ref())),
            None => Ok(()),
        }
    }
}

impl RowSource for PrefetchRows {
    fn width(&self) -> usize {
        self.width
    }

    fn rows_remaining(&self) -> Option<usize> {
        self.rows_remaining
    }

    fn next_band(&mut self, max_rows: usize) -> Result<Option<BinaryImage>, StreamError> {
        assert!(max_rows > 0, "band height must be positive");
        if self.poisoned {
            return Ok(None);
        }
        let (band, r0) = match self.pending.take() {
            Some(pending) => pending,
            None => match self.rx.as_ref().and_then(|rx| rx.recv().ok()) {
                Some(Ok(band)) => (band, 0),
                Some(Err(e)) => {
                    self.poisoned = true;
                    return Err(e);
                }
                // Disconnected: the worker finished (cleanly or by
                // panicking) — the join tells which.
                None => {
                    self.poisoned = true;
                    return self.join().map(|()| None);
                }
            },
        };
        let rows = max_rows.min(band.height() - r0);
        let band = if rows == band.height() {
            band // the whole band: moved, not copied
        } else {
            let head = band.crop(r0, 0, band.width(), rows);
            if r0 + rows < band.height() {
                self.pending = Some((band, r0 + rows));
            }
            head
        };
        if let Some(r) = self.rows_remaining.as_mut() {
            *r = r.saturating_sub(band.height());
        }
        Ok(Some(band))
    }
}

impl Drop for PrefetchRows {
    fn drop(&mut self) {
        // Disconnect first so the worker cannot block. A panic not yet
        // surfaced through `next_band` is dropped, not raised —
        // propagating from Drop would abort the process.
        self.rx = None;
        let _ = self.join();
    }
}

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
    use crate::source::{GridSource, MemorySource, TileSource};
    use std::time::Instant;

    fn test_image() -> BinaryImage {
        BinaryImage::from_fn(7, 19, |r, c| (3 * r + c) % 4 == 0)
    }

    /// A source whose every pull panics.
    struct Panics;
    impl RowSource for Panics {
        fn width(&self) -> usize {
            2
        }
        fn rows_remaining(&self) -> Option<usize> {
            None
        }
        fn next_band(&mut self, _: usize) -> Result<Option<BinaryImage>, StreamError> {
            panic!("source blew up");
        }
    }

    #[test]
    fn delivers_the_same_bands_as_the_wrapped_source() {
        let img = test_image();
        let mut sync = MemorySource::new(img.clone());
        let mut pf = PrefetchRows::new(MemorySource::new(img), 4);
        assert_eq!(pf.width(), 7);
        assert_eq!(pf.rows_remaining(), Some(19));
        loop {
            let a = sync.next_band(4).unwrap();
            let b = pf.next_band(4).unwrap();
            assert_eq!(a, b);
            assert_eq!(sync.rows_remaining(), pf.rows_remaining());
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn splits_bands_when_the_consumer_asks_for_fewer_rows() {
        let img = test_image();
        for (band_rows, pull) in [(8, 3), (4, 1), (4, 3), (7, 1), (7, 3), (7, 5)] {
            let mut pf = PrefetchRows::new(MemorySource::new(img.clone()), band_rows);
            let mut r0 = 0;
            while let Some(band) = pf.next_band(pull).unwrap() {
                assert!(band.height() <= pull);
                for r in 0..band.height() {
                    assert_eq!(band.row(r), img.row(r0 + r), "row {}", r0 + r);
                }
                r0 += band.height();
                assert_eq!(pf.rows_remaining(), Some(19 - r0));
            }
            assert_eq!(r0, 19, "bands of {band_rows}, pulls of {pull}");
        }
    }

    #[test]
    fn drop_without_draining_does_not_hang() {
        let img = test_image();
        for depth in [1, 2, 5] {
            let mut pf = PrefetchRows::with_depth(MemorySource::new(img.clone()), 2, depth);
            let _ = pf.next_band(2).unwrap();
            drop(pf); // worker may be blocked mid-send; must still exit
        }
    }

    #[test]
    fn source_error_surfaces_once_then_stream_ends() {
        struct FailsAfter(usize);
        impl RowSource for FailsAfter {
            fn width(&self) -> usize {
                3
            }
            fn rows_remaining(&self) -> Option<usize> {
                None
            }
            fn next_band(&mut self, _: usize) -> Result<Option<BinaryImage>, StreamError> {
                if self.0 == 0 {
                    return Err(StreamError::Image(ccl_image::ImageError::Parse(
                        "truncated band".into(),
                    )));
                }
                self.0 -= 1;
                Ok(Some(BinaryImage::ones(3, 2)))
            }
        }
        let mut pf = PrefetchRows::new(FailsAfter(2), 2);
        assert!(pf.next_band(2).unwrap().is_some());
        assert!(pf.next_band(2).unwrap().is_some());
        let err = loop {
            match pf.next_band(2) {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("error was dropped"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("truncated band"));
        assert!(pf.next_band(2).unwrap().is_none(), "poisoned after error");
    }

    #[test]
    fn panicking_source_surfaces_as_worker_error() {
        let mut pf = PrefetchRows::new(Panics, 1);
        let err = loop {
            match pf.next_band(1) {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("panic was dropped"),
                Err(e) => break e,
            }
        };
        match err {
            StreamError::Worker(msg) => assert!(msg.contains("blew up"), "{msg}"),
            other => panic!("expected Worker error, got {other}"),
        }
        assert!(pf.next_band(1).unwrap().is_none(), "poisoned after panic");
    }

    #[test]
    fn drop_after_an_unsurfaced_panic_does_not_abort() {
        // the worker panics on its first pull; nothing ever asks for a
        // band, so the panic reaches only the join in `Drop`, which
        // must swallow it
        let pf = PrefetchRows::new(Panics, 1);
        drop(pf);
    }

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
            fn next_band(&mut self, _: usize) -> Result<Option<BinaryImage>, StreamError> {
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
