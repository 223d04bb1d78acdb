//! Synthetic generator sources — `ccl-datasets` row streams as
//! [`RowSource`]s.
//!
//! [`RowStream`] (see [`ccl_datasets::synth::stream`]) already delivers
//! bit-identical row bands for the noise and land-cover generators;
//! this `impl` plugs it straight into the labeling pipeline, so
//! arbitrarily tall synthetic rasters can be labeled without ever
//! existing in memory.

use ccl_datasets::synth::stream::RowStream;
use ccl_image::BinaryImage;

use crate::error::StreamError;
use crate::source::RowSource;

impl RowSource for RowStream {
    fn width(&self) -> usize {
        RowStream::width(self)
    }

    fn rows_remaining(&self) -> Option<usize> {
        Some(RowStream::rows_remaining(self))
    }

    fn next_band(&mut self, max_rows: usize) -> Result<Option<BinaryImage>, StreamError> {
        Ok(RowStream::next_band(self, max_rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccl_datasets::synth::stream::bernoulli_stream;

    #[test]
    fn row_stream_is_a_row_source() {
        let mut src: Box<dyn RowSource> = Box::new(bernoulli_stream(11, 7, 0.5, 5));
        assert_eq!(src.width(), 11);
        assert_eq!(src.rows_remaining(), Some(7));
        let mut rows = 0;
        while let Some(band) = src.next_band(3).unwrap() {
            rows += band.height();
        }
        assert_eq!(rows, 7);
    }
}
