//! [`TileSource`] — the pull-based supplier of tile rows.
//!
//! The grid labeler consumes one **tile row** at a time: a [`TileRow`],
//! the band of the next `tile_height` image rows (clipped at the bottom
//! edge) cut into `⌈width / tile_width⌉` column tiles (clipped at the
//! right edge). A tile is a column span of the band, never a copy. One
//! generic adapter, [`GridSource`], windows any `ccl-stream`
//! [`RowSource`] into tile rows, which covers all three source families
//! out of the box:
//!
//! * **in-memory** — [`GridSource::from_image`] over [`MemorySource`];
//! * **Netpbm window reader** — [`GridSource::pbm`] / [`GridSource::pgm`]
//!   over the incremental band decoders, so a file on disk is decoded one
//!   tile row at a time;
//! * **streamed generators** — [`GridSource::new`] over any
//!   `RowStream` from `ccl_datasets::synth::stream` (which implements
//!   [`RowSource`]), so synthetic rasters of unbounded size tile without
//!   ever existing in memory.

use std::io::Read;
use std::ops::Range;

use ccl_image::BinaryImage;
use ccl_stream::{MemorySource, PbmSource, PgmSource, RowSource};

use crate::error::TilesError;

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
    fn next_tile_row(&mut self) -> Result<Option<TileRow>, TilesError>;
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

impl<'a> GridSource<MemorySource<'a>> {
    /// Tiles a resident [`BinaryImage`] (testing and small inputs).
    pub fn from_image(image: &'a BinaryImage, tile_width: usize, tile_height: usize) -> Self {
        GridSource::new(MemorySource::new(image), tile_width, tile_height)
    }
}

impl<R: Read> GridSource<PbmSource<R>> {
    /// Tiles a PBM (`P1`/`P4`) stream, decoding one tile row of the file
    /// at a time (wrap files in a [`std::io::BufReader`]).
    pub fn pbm(reader: R, tile_width: usize, tile_height: usize) -> Result<Self, TilesError> {
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
    ) -> Result<Self, TilesError> {
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

    fn next_tile_row(&mut self) -> Result<Option<TileRow>, TilesError> {
        let band = self.inner.next_band(self.tile_height)?;
        Ok(band.map(|band| TileRow::new(band, self.tile_width)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
