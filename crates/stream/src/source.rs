//! [`RowSource`] and [`TileSource`] — the pull-based suppliers of the
//! labeler's units.
//!
//! Everything upstream of the labeler implements [`RowSource`], which
//! yields row bands: the in-memory adapters below, the incremental
//! Netpbm decoders ([`crate::netpbm`]) and the streamed synthetic
//! generators ([`crate::generators`]).
//!
//! A [`TileSource`] yields **tile rows** instead: a [`TileRow`] is the
//! band of the next `tile_height` image rows (clipped at the bottom edge)
//! cut into `⌈width / tile_width⌉` column tiles (clipped at the right
//! edge). A tile is a column span of the band, never a copy. One generic
//! adapter, [`GridSource`], windows any [`RowSource`] into tile rows —
//! [`GridSource::from_image`] for a resident image, [`GridSource::pbm`] /
//! [`GridSource::pgm`] to decode a file one tile row at a time, and
//! [`GridSource::new`] over any other source, the streamed generators
//! included, so synthetic rasters of unbounded size tile without ever
//! existing in memory.

use std::borrow::Borrow;
use std::io::Read;
use std::ops::Range;

use ccl_image::BinaryImage;

use crate::error::StreamError;
use crate::netpbm::{PbmSource, PgmSource};

/// A pull-based iterator of row bands: top-to-bottom, each band a binary
/// image of the stream's width.
pub trait RowSource {
    /// Width (columns) of every band.
    fn width(&self) -> usize;

    /// Rows not yet delivered, when the source knows (`None` for
    /// unbounded/unknown-length streams).
    fn rows_remaining(&self) -> Option<usize>;

    /// Pulls the next band of at most `max_rows` rows; `Ok(None)` once
    /// the stream is exhausted.
    fn next_band(&mut self, max_rows: usize) -> Result<Option<BinaryImage>, StreamError>;
}

/// Adapts an in-memory [`BinaryImage`], borrowed (`MemorySource::new(&img)`)
/// or owned (`MemorySource::new(img)`, the `'static` form a source needs
/// to move onto another thread, e.g. behind a
/// [`PrefetchRows`](crate::PrefetchRows)): bands are copied out row
/// ranges. Useful for testing band-size invariance and for feeding
/// resident images through the streaming API.
pub struct MemorySource<I> {
    image: I,
    next_row: usize,
}

impl<I: Borrow<BinaryImage>> MemorySource<I> {
    /// Streams `image` from its first row.
    pub fn new(image: I) -> Self {
        MemorySource { image, next_row: 0 }
    }
}

impl<I: Borrow<BinaryImage>> RowSource for MemorySource<I> {
    fn width(&self) -> usize {
        self.image.borrow().width()
    }

    fn rows_remaining(&self) -> Option<usize> {
        Some(self.image.borrow().height() - self.next_row)
    }

    fn next_band(&mut self, max_rows: usize) -> Result<Option<BinaryImage>, StreamError> {
        assert!(max_rows > 0, "band height must be positive");
        let image = self.image.borrow();
        let rows = max_rows.min(image.height() - self.next_row);
        if rows == 0 {
            return Ok(None);
        }
        let band = image.crop(self.next_row, 0, image.width(), rows);
        self.next_row += rows;
        Ok(Some(band))
    }
}

/// One tile row: a band of image rows cut into `tile_width`-wide column
/// tiles, left to right (the rightmost may be narrower). Every tile
/// shares the band's height and the tiles cover its width, so a tile row
/// cannot be ragged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileRow {
    band: BinaryImage,
    tile_width: usize,
}

impl TileRow {
    /// Cuts `band` into `tile_width`-wide tiles.
    ///
    /// # Panics
    /// Panics when `tile_width` is 0.
    pub fn new(band: BinaryImage, tile_width: usize) -> Self {
        assert!(tile_width > 0, "tile width must be positive");
        TileRow { band, tile_width }
    }

    /// The band of pixel rows the tiles cut.
    pub(crate) fn band(&self) -> &BinaryImage {
        &self.band
    }

    /// Column spans of the tiles, left to right (none for a zero-width
    /// band).
    pub(crate) fn spans(&self) -> Vec<Range<usize>> {
        let w = self.band.width();
        (0..w)
            .step_by(self.tile_width)
            .map(|x0| x0..w.min(x0 + self.tile_width))
            .collect()
    }
}

/// A pull-based iterator of tile rows, top-to-bottom.
pub trait TileSource {
    /// Total width (columns) of the tiled image.
    fn width(&self) -> usize;

    /// Pulls the next tile row; `Ok(None)` once the stream is exhausted.
    fn next_tile_row(&mut self) -> Result<Option<TileRow>, StreamError>;
}

/// Windows any [`RowSource`] into a tile grid: each pulled band of
/// `tile_height` rows becomes a [`TileRow`] of `tile_width`-wide tiles.
pub struct GridSource<S> {
    inner: S,
    tile_width: usize,
    tile_height: usize,
}

impl<S: RowSource> GridSource<S> {
    /// Wraps a row source in a `tile_width × tile_height` grid.
    ///
    /// # Panics
    /// Panics when either tile dimension is 0.
    pub fn new(inner: S, tile_width: usize, tile_height: usize) -> Self {
        assert!(
            tile_width > 0 && tile_height > 0,
            "tile dimensions must be positive"
        );
        GridSource {
            inner,
            tile_width,
            tile_height,
        }
    }
}

impl<'a> GridSource<MemorySource<&'a BinaryImage>> {
    /// Tiles a resident [`BinaryImage`] (testing and small inputs).
    pub fn from_image(image: &'a BinaryImage, tile_width: usize, tile_height: usize) -> Self {
        GridSource::new(MemorySource::new(image), tile_width, tile_height)
    }
}

impl<R: Read> GridSource<PbmSource<R>> {
    /// Tiles a PBM (`P1`/`P4`) stream, decoding one tile row of the file
    /// at a time (wrap files in a [`std::io::BufReader`]).
    pub fn pbm(reader: R, tile_width: usize, tile_height: usize) -> Result<Self, StreamError> {
        Ok(GridSource::new(
            PbmSource::new(reader)?,
            tile_width,
            tile_height,
        ))
    }
}

impl<R: Read> GridSource<PgmSource<R>> {
    /// Tiles a PGM (`P2`/`P5`) stream binarized with the `im2bw`
    /// threshold `level` (the paper uses 0.5).
    pub fn pgm(
        reader: R,
        level: f64,
        tile_width: usize,
        tile_height: usize,
    ) -> Result<Self, StreamError> {
        Ok(GridSource::new(
            PgmSource::new(reader, level)?,
            tile_width,
            tile_height,
        ))
    }
}

impl<S: RowSource> TileSource for GridSource<S> {
    fn width(&self) -> usize {
        self.inner.width()
    }

    fn next_tile_row(&mut self) -> Result<Option<TileRow>, StreamError> {
        let band = self.inner.next_band(self.tile_height)?;
        Ok(band.map(|band| TileRow::new(band, self.tile_width)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_source_bands_cover_image() {
        let img = BinaryImage::parse(
            "#..
             .#.
             ..#
             ###
             ...",
        );
        let (mut borrowed, mut owned) = (MemorySource::new(&img), MemorySource::new(img.clone()));
        for src in [&mut borrowed as &mut dyn RowSource, &mut owned] {
            assert_eq!(src.width(), 3);
            assert_eq!(src.rows_remaining(), Some(5));
            let b1 = src.next_band(2).unwrap().unwrap();
            assert_eq!(b1.row(0), img.row(0));
            assert_eq!(b1.row(1), img.row(1));
            let b2 = src.next_band(2).unwrap().unwrap();
            assert_eq!(b2.row(1), img.row(3));
            let b3 = src.next_band(2).unwrap().unwrap();
            assert_eq!(b3.height(), 1);
            assert_eq!(b3.row(0), img.row(4));
            assert!(src.next_band(2).unwrap().is_none());
            assert_eq!(src.rows_remaining(), Some(0));
        }
    }

    #[test]
    fn empty_image_is_immediately_exhausted() {
        let img = BinaryImage::zeros(4, 0);
        let mut src = MemorySource::new(&img);
        assert!(src.next_band(8).unwrap().is_none());
    }

    #[test]
    fn grid_source_tiles_cover_the_image() {
        let img = BinaryImage::from_fn(7, 5, |r, c| (r * 7 + c) % 3 == 0);
        let mut src = GridSource::from_image(&img, 3, 2);
        assert_eq!(src.width(), 7);
        let mut r0 = 0;
        while let Some(row) = src.next_tile_row().unwrap() {
            assert_eq!(row.spans(), vec![0..3, 3..6, 6..7]);
            let th = row.band().height();
            assert_eq!(*row.band(), img.crop(r0, 0, 7, th));
            r0 += th;
        }
        assert_eq!(r0, 5);
    }

    #[test]
    fn bottom_row_is_clipped() {
        let img = BinaryImage::ones(4, 5);
        let mut src = GridSource::from_image(&img, 2, 2);
        let mut heights = Vec::new();
        while let Some(row) = src.next_tile_row().unwrap() {
            heights.push(row.band().height());
        }
        assert_eq!(heights, vec![2, 2, 1]);
    }

    #[test]
    fn netpbm_window_reader_streams_tiles() {
        let img = BinaryImage::parse("#.#. .#.# ##.. ..##");
        let bytes = ccl_image::io::pbm::write_binary(&img);
        let mut src = GridSource::pbm(bytes.as_slice(), 3, 3).unwrap();
        let first = src.next_tile_row().unwrap().unwrap();
        assert_eq!(first.spans(), vec![0..3, 3..4]);
        assert_eq!(first.band().height(), 3);
        let second = src.next_tile_row().unwrap().unwrap();
        assert_eq!(second.band().height(), 1);
        assert!(src.next_tile_row().unwrap().is_none());
    }

    #[test]
    fn zero_width_stream_yields_rows_without_tiles() {
        let img = BinaryImage::zeros(0, 3);
        let mut src = GridSource::from_image(&img, 4, 2);
        let row = src.next_tile_row().unwrap().unwrap();
        assert!(row.spans().is_empty());
        assert_eq!(row.band().height(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tile_width_rejected() {
        let img = BinaryImage::zeros(4, 4);
        GridSource::from_image(&img, 0, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_tile_row_rejected() {
        TileRow::new(BinaryImage::ones(4, 2), 0);
    }
}
