//! Pass-through wrappers that put spans around calls into a layer's
//! public API. Each forwards every call unchanged; with an off
//! [`Tracer`] the only cost is one branch per call.

use ccl_image::BinaryImage;
use ccl_stream::{ComponentId, ComponentRecord, ComponentSink, RowSource, StreamError};
use ccl_tiles::{TileMeta, TileSink, TilesError};

use crate::trace::{Leaf, Tracer};

/// A [`RowSource`] whose `next_band` calls are spans named `name`.
pub struct TracedRows<S> {
    inner: S,
    tracer: Tracer,
    name: &'static str,
}

impl<S: RowSource> TracedRows<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: Tracer, name: &'static str) -> Self {
        TracedRows {
            inner,
            tracer,
            name,
        }
    }
}

impl<S: RowSource> RowSource for TracedRows<S> {
    fn width(&self) -> usize {
        self.inner.width()
    }

    fn rows_remaining(&self) -> Option<usize> {
        self.inner.rows_remaining()
    }

    fn next_band(&mut self, max_rows: usize) -> Result<Option<BinaryImage>, StreamError> {
        let _span = self.tracer.span(self.name);
        self.inner.next_band(max_rows)
    }
}

/// A [`ComponentSink`] whose callbacks are timed as [`Leaf::Emit`] calls.
pub struct TracedComponents<'a, C> {
    inner: &'a mut C,
    tracer: &'a Tracer,
}

impl<'a, C: ComponentSink> TracedComponents<'a, C> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut C, tracer: &'a Tracer) -> Self {
        TracedComponents { inner, tracer }
    }
}

impl<C: ComponentSink> ComponentSink for TracedComponents<'_, C> {
    fn component(&mut self, record: &ComponentRecord) {
        self.tracer
            .leaf(Leaf::Emit, || self.inner.component(record));
    }
}

/// A [`TileSink`] whose `tile` calls are `tiles.spill_write` spans and
/// whose `merge` calls are timed as [`Leaf::Merge`] calls.
pub struct TracedTiles<T> {
    inner: T,
    tracer: Tracer,
}

impl<T: TileSink> TracedTiles<T> {
    /// Wraps `inner`.
    pub fn new(inner: T, tracer: Tracer) -> Self {
        TracedTiles { inner, tracer }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: TileSink> TileSink for TracedTiles<T> {
    fn merge(&mut self, kept: ComponentId, absorbed: ComponentId) {
        self.tracer
            .leaf(Leaf::Merge, || self.inner.merge(kept, absorbed));
    }

    fn tile(&mut self, meta: &TileMeta, gids: &[ComponentId]) -> Result<(), TilesError> {
        let _span = self.tracer.span("tiles.spill_write");
        self.inner.tile(meta, gids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccl_stream::{MemorySource, StripConfig, StripLabeler};
    use ccl_tiles::{CollectTiles, GridSource, TileGridConfig, TileGridLabeler, TileSource};

    fn strip_records<S: RowSource>(mut src: S, tracer: &Tracer) -> Vec<ComponentRecord> {
        let mut records = Vec::new();
        let mut labeler = StripLabeler::with_config(src.width(), StripConfig::parallel(2));
        {
            let mut sink = TracedComponents::new(&mut records, tracer);
            while let Some(band) = src.next_band(5).unwrap() {
                labeler.push_band(&band, &mut sink).unwrap();
            }
            labeler.finish(&mut sink);
        }
        records
    }

    #[test]
    fn wrapped_strip_run_emits_the_same_records() {
        let img = ccl_datasets::synth::shapes::text_page(61, 47, 1, 3);
        let mut plain = Vec::new();
        let mut labeler = StripLabeler::with_config(img.width(), StripConfig::parallel(2));
        let mut src = MemorySource::new(&img);
        while let Some(band) = src.next_band(5).unwrap() {
            labeler.push_band(&band, &mut plain).unwrap();
        }
        labeler.finish(&mut plain);
        assert!(!plain.is_empty());

        for tracer in [Tracer::off(), Tracer::on()] {
            let src = TracedRows::new(MemorySource::new(&img), tracer.clone(), "image.decode");
            assert_eq!(strip_records(src, &tracer), plain);
            if tracer.is_on() {
                let spans = tracer.finish();
                // 47 rows in 5-row bands: 10 bands plus the final empty pull
                assert_eq!(
                    spans.iter().filter(|s| s.name == "image.decode").count(),
                    11
                );
            }
        }
    }

    #[test]
    fn wrapped_tile_sink_sees_the_same_tiles_and_merges() {
        let img = ccl_datasets::synth::noise::bernoulli(50, 40, 0.5, 4);
        let run = |tracer: Option<Tracer>| {
            let mut grid = GridSource::from_image(&img, 16, 8);
            let mut labeler =
                TileGridLabeler::with_config(grid.width(), TileGridConfig::parallel(2));
            let mut records = Vec::new();
            let mut plain = CollectTiles::default();
            let mut traced =
                TracedTiles::new(CollectTiles::default(), tracer.clone().unwrap_or_default());
            while let Some(row) = grid.next_tile_row().unwrap() {
                match &tracer {
                    Some(_) => labeler.push_tile_row_with_labels(&row, &mut records, &mut traced),
                    None => labeler.push_tile_row_with_labels(&row, &mut records, &mut plain),
                }
                .unwrap();
            }
            labeler.finish(&mut records);
            let labels = match tracer {
                Some(_) => traced.into_inner().into_label_image(),
                None => plain.into_label_image(),
            };
            (records, labels)
        };
        let (plain_records, plain_labels) = run(None);
        let tracer = Tracer::on();
        let (traced_records, traced_labels) = run(Some(tracer.clone()));
        assert_eq!(traced_records, plain_records);
        assert_eq!(traced_labels.as_slice(), plain_labels.as_slice());
        let spans = tracer.finish();
        // 4 tile columns × 5 tile rows, each tile one spill_write span
        assert_eq!(
            spans
                .iter()
                .filter(|s| s.name == "tiles.spill_write")
                .count(),
            20
        );
    }
}
