//! [`PrefetchTiles`] — decode tile rows one thread ahead of the consumer.

use ccl_image::BinaryImage;
use ccl_tiles::{TileSource, TilesError};

use crate::error::PipelineError;
use crate::worker::PrefetchWorker;

/// Moves a [`TileSource`] onto a worker thread and hands its tile rows to
/// the consumer through a bounded channel — the tile-grid counterpart of
/// [`PrefetchRows`](crate::PrefetchRows), with the same backpressure,
/// shutdown and error semantics. Implements [`TileSource`] itself, so the
/// grid drivers (`label_tiles`, `analyze_tiles`) compose unchanged;
/// stacked under a driver run with `pipelined: true` it yields a
/// three-stage pipeline: decode ∥ scan ∥ merge/spill.
pub struct PrefetchTiles<S> {
    width: usize,
    tile_width: usize,
    tile_height: usize,
    rows_remaining: Option<usize>,
    worker: PrefetchWorker<Result<Vec<BinaryImage>, TilesError>, S>,
    poisoned: bool,
}

impl<S: TileSource + Send + 'static> PrefetchTiles<S> {
    /// Double-buffered prefetcher (`depth` 2).
    pub fn new(source: S) -> Self {
        Self::with_depth(source, 2)
    }

    /// Prefetcher with an explicit queue depth (≥ 1): the worker runs at
    /// most `depth` tile rows ahead of the consumer.
    ///
    /// # Panics
    /// Panics when `depth` is 0.
    pub fn with_depth(mut source: S, depth: usize) -> Self {
        let width = source.width();
        let tile_width = source.tile_width();
        let tile_height = source.tile_height();
        let rows_remaining = source.rows_remaining();
        let worker = PrefetchWorker::spawn("ccl-prefetch-tiles", depth, move |tx| {
            loop {
                match source.next_tile_row() {
                    Ok(Some(row)) => {
                        if tx.send(Ok(row)).is_err() {
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
        });
        PrefetchTiles {
            width,
            tile_width,
            tile_height,
            rows_remaining,
            worker,
            poisoned: false,
        }
    }

    /// Stops the worker and returns the wrapped source (its position is
    /// wherever the *worker* got to, up to `depth` tile rows ahead of
    /// what was consumed). Errors if the worker panicked — even one
    /// already reported through [`TileSource::next_tile_row`].
    pub fn into_inner(self) -> Result<S, PipelineError> {
        self.worker.into_inner()
    }
}

impl<S: TileSource + Send + 'static> TileSource for PrefetchTiles<S> {
    fn width(&self) -> usize {
        self.width
    }

    fn tile_width(&self) -> usize {
        self.tile_width
    }

    fn tile_height(&self) -> usize {
        self.tile_height
    }

    fn rows_remaining(&self) -> Option<usize> {
        self.rows_remaining
    }

    fn next_tile_row(&mut self) -> Result<Option<Vec<BinaryImage>>, TilesError> {
        if self.poisoned {
            return Ok(None);
        }
        match self.worker.recv() {
            Some(Ok(row)) => {
                if let Some(r) = self.rows_remaining.as_mut() {
                    let th = row.first().map_or(0, BinaryImage::height);
                    *r = r.saturating_sub(th);
                }
                Ok(Some(row))
            }
            Some(Err(e)) => {
                self.poisoned = true;
                Err(e)
            }
            None => {
                self.worker.join()?;
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccl_stream::OwnedMemorySource;
    use ccl_tiles::GridSource;

    fn grid(img: &BinaryImage, tw: usize, th: usize) -> GridSource<OwnedMemorySource> {
        GridSource::new(OwnedMemorySource::new(img.clone()), tw, th)
    }

    #[test]
    fn delivers_the_same_tile_rows_as_the_wrapped_source() {
        let img = BinaryImage::from_fn(11, 13, |r, c| (r * c) % 3 == 0);
        let mut sync = grid(&img, 4, 3);
        let mut pf = PrefetchTiles::new(grid(&img, 4, 3));
        assert_eq!((pf.width(), pf.tile_width(), pf.tile_height()), (11, 4, 3));
        assert_eq!(pf.rows_remaining(), Some(13));
        loop {
            let a = sync.next_tile_row().unwrap();
            let b = pf.next_tile_row().unwrap();
            assert_eq!(a, b);
            assert_eq!(sync.rows_remaining(), pf.rows_remaining());
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn drop_without_draining_does_not_hang() {
        let img = BinaryImage::ones(8, 64);
        for depth in [1, 3] {
            let mut pf = PrefetchTiles::with_depth(grid(&img, 4, 2), depth);
            let _ = pf.next_tile_row().unwrap();
            drop(pf);
        }
    }

    #[test]
    fn into_inner_recovers_the_source() {
        let img = BinaryImage::ones(6, 10);
        let pf = PrefetchTiles::new(grid(&img, 3, 2));
        let src = pf.into_inner().unwrap();
        assert!(src.rows_remaining().unwrap() <= 10);
    }

    #[test]
    fn panicking_source_surfaces_as_worker_error() {
        struct Panics;
        impl TileSource for Panics {
            fn width(&self) -> usize {
                2
            }
            fn tile_width(&self) -> usize {
                2
            }
            fn tile_height(&self) -> usize {
                1
            }
            fn rows_remaining(&self) -> Option<usize> {
                None
            }
            fn next_tile_row(&mut self) -> Result<Option<Vec<BinaryImage>>, TilesError> {
                panic!("tile source blew up");
            }
        }
        let mut pf = PrefetchTiles::new(Panics);
        let err = loop {
            match pf.next_tile_row() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("panic was dropped"),
                Err(e) => break e,
            }
        };
        match err {
            TilesError::Worker(msg) => assert!(msg.contains("blew up"), "{msg}"),
            other => panic!("expected Worker error, got {other}"),
        }
        assert!(pf.next_tile_row().unwrap().is_none());
        match pf.into_inner() {
            Err(PipelineError::WorkerPanicked(msg)) => {
                assert!(msg.contains("blew up"), "{msg}")
            }
            Err(other) => panic!("expected WorkerPanicked, got {other}"),
            Ok(_) => panic!("expected WorkerPanicked, got a source"),
        }
    }
}
