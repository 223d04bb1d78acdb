//! [`PrefetchRows`] — decode row bands one thread ahead of the consumer.

use std::sync::mpsc;
use std::thread::JoinHandle;

use ccl_image::BinaryImage;
use ccl_stream::{RowSource, StreamError};

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
pub struct PrefetchRows<S> {
    width: usize,
    rows_remaining: Option<usize>,
    /// Prefetched bands; `None` once disconnected (`into_inner`, drop).
    rx: Option<mpsc::Receiver<Result<BinaryImage, StreamError>>>,
    /// The worker thread, until joined.
    handle: Option<JoinHandle<S>>,
    /// The join's outcome: the source back, or the panic as a
    /// [`StreamError::Worker`] (kept so `into_inner` still reports a
    /// panic already surfaced).
    joined: Option<Result<S, StreamError>>,
    /// Remainder of a delivered band when the consumer asked for fewer
    /// rows than the prefetch band height.
    pending: Option<BinaryImage>,
    /// Set once the stream ended or failed: it then reads as ended.
    poisoned: bool,
}

impl<S: RowSource + Send + 'static> PrefetchRows<S> {
    /// Double-buffered prefetcher (`depth` 2) pulling `band_rows`-row
    /// bands.
    ///
    /// # Panics
    /// Panics when `band_rows` is 0.
    pub fn new(source: S, band_rows: usize) -> Self {
        Self::with_depth(source, band_rows, 2)
    }

    /// Prefetcher with an explicit queue depth (≥ 1): the worker runs at
    /// most `depth` bands ahead of the consumer.
    ///
    /// # Panics
    /// Panics when `band_rows` or `depth` is 0.
    pub fn with_depth(mut source: S, band_rows: usize, depth: usize) -> Self {
        assert!(band_rows > 0, "band height must be positive");
        assert!(depth > 0, "prefetch depth must be positive");
        let width = source.width();
        let rows_remaining = source.rows_remaining();
        let (tx, rx) = mpsc::sync_channel(depth);
        let worker = move || {
            loop {
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
            }
            source
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
            joined: None,
            pending: None,
            poisoned: false,
        }
    }

    /// Stops the worker and returns the wrapped source (its position is
    /// wherever the *worker* got to, up to `depth` bands ahead of what
    /// was consumed). Errors with [`StreamError::Worker`] if the worker
    /// panicked — even one already reported through
    /// [`RowSource::next_band`].
    pub fn into_inner(mut self) -> Result<S, StreamError> {
        self.rx = None; // disconnect: the worker's next send fails
        self.join();
        self.joined.take().expect("the worker was joined")
    }
}

impl<S: RowSource + Send + 'static> RowSource for PrefetchRows<S> {
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
        let band = match self.pending.take() {
            Some(band) => band,
            None => match self.rx.as_ref().and_then(|rx| rx.recv().ok()) {
                Some(Ok(band)) => band,
                Some(Err(e)) => {
                    self.poisoned = true;
                    return Err(e);
                }
                // Disconnected: the worker finished (cleanly or by
                // panicking) — the join tells which.
                None => {
                    self.poisoned = true;
                    self.join();
                    if let Some(Err(StreamError::Worker(msg))) = &self.joined {
                        return Err(StreamError::Worker(msg.clone()));
                    }
                    return Ok(None);
                }
            },
        };
        let band = if band.height() > max_rows {
            let head = band.crop(0, 0, band.width(), max_rows);
            self.pending = Some(band.crop(max_rows, 0, band.width(), band.height() - max_rows));
            head
        } else {
            band
        };
        if let Some(r) = self.rows_remaining.as_mut() {
            *r = r.saturating_sub(band.height());
        }
        Ok(Some(band))
    }
}

impl<S> PrefetchRows<S> {
    /// Joins the worker once it hung up (cleanly or by panicking),
    /// keeping the outcome.
    fn join(&mut self) {
        if let Some(h) = self.handle.take() {
            self.joined = Some(h.join().map_err(|p| StreamError::worker_panic(p.as_ref())));
        }
    }
}

impl<S> Drop for PrefetchRows<S> {
    fn drop(&mut self) {
        // Disconnect first so the worker cannot block. A panic not yet
        // surfaced through `next_band` is kept, not raised — propagating
        // from Drop would abort the process.
        self.rx = None;
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccl_stream::OwnedMemorySource;

    fn test_image() -> BinaryImage {
        BinaryImage::from_fn(7, 19, |r, c| (3 * r + c) % 4 == 0)
    }

    #[test]
    fn delivers_the_same_bands_as_the_wrapped_source() {
        let img = test_image();
        let mut sync = OwnedMemorySource::new(img.clone());
        let mut pf = PrefetchRows::new(OwnedMemorySource::new(img), 4);
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
        let mut pf = PrefetchRows::new(OwnedMemorySource::new(img.clone()), 8);
        let mut r0 = 0;
        while let Some(band) = pf.next_band(3).unwrap() {
            assert!(band.height() <= 3);
            for r in 0..band.height() {
                assert_eq!(band.row(r), img.row(r0 + r), "row {}", r0 + r);
            }
            r0 += band.height();
        }
        assert_eq!(r0, 19);
    }

    #[test]
    fn drop_without_draining_does_not_hang() {
        let img = test_image();
        for depth in [1, 2, 5] {
            let mut pf = PrefetchRows::with_depth(OwnedMemorySource::new(img.clone()), 2, depth);
            let _ = pf.next_band(2).unwrap();
            drop(pf); // worker may be blocked mid-send; must still exit
        }
    }

    #[test]
    fn into_inner_recovers_the_source() {
        let img = test_image();
        let pf = PrefetchRows::new(OwnedMemorySource::new(img), 32);
        let src = pf.into_inner().unwrap();
        // worker ran ahead; the source is somewhere in [0, 19] rows left
        assert!(src.rows_remaining().unwrap() <= 19);
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
        // after a source *error* the worker exited cleanly: the source
        // itself is still recoverable
        assert!(pf.into_inner().is_ok());
    }

    #[test]
    fn panicking_source_surfaces_as_worker_error() {
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
        // into_inner after a surfaced panic reports the panic as an
        // error instead of panicking the caller
        match pf.into_inner() {
            Err(StreamError::Worker(msg)) => assert!(msg.contains("blew up"), "{msg}"),
            Err(other) => panic!("expected Worker error, got {other}"),
            Ok(_) => panic!("expected Worker error, got a source"),
        }
    }
}
