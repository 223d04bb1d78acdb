//! The drivers — pull a whole [`RowSource`] (in bands) or [`TileSource`]
//! (in tile rows) through a [`StripLabeler`] with the one driver loop,
//! synchronously or pipelined.

use crate::analysis::{ComponentRecord, ComponentSink, TileSink};
use crate::error::StreamError;
use crate::labeler::{StreamStats, StripConfig, StripLabeler, Unit};
use crate::scan::{ScanState, ScannedRow};
use crate::source::{RowSource, TileSource};

/// Streams `source` through the labeler in bands of `band_rows`,
/// emitting every component through `components` and, when given, every
/// band's labels as one full-width tile (and every id merge) through
/// `labels` — pass a [`CollectTiles`](crate::CollectTiles) to reconcile
/// them into a whole label image, or a [`SpillSink`](crate::SpillSink) to
/// spill them to disk.
///
/// Synchronously the labeler never holds more than one band plus the
/// carry row of pixels. With [`StripConfig::pipelined`] band *k + 1*'s
/// scan overlaps band *k*'s merge on a worker thread. Both modes run the
/// one driver loop: output is identical, and the labeler reports the
/// pipelined run's two-band + carry residency in
/// [`StreamStats::peak_resident_rows`]. A panicking stage surfaces as
/// [`StreamError::Worker`].
///
/// # Panics
/// Panics when `band_rows` is 0, in either mode.
pub fn label_stream<S>(
    source: &mut S,
    band_rows: usize,
    cfg: StripConfig,
    components: &mut dyn ComponentSink,
    labels: Option<&mut dyn TileSink>,
) -> Result<StreamStats, StreamError>
where
    S: RowSource + Send + ?Sized,
{
    assert!(band_rows > 0, "band height must be positive");
    let width = source.width();
    let scan = |state: &mut ScanState| {
        let band = source.next_band(band_rows)?;
        band.map(|band| Unit::Band(&band).scan(cfg.threads, state))
            .transpose()
    };
    drive(width, cfg, components, labels, scan)
}

/// [`label_stream`] collecting every [`ComponentRecord`] (emission order:
/// closure order).
///
/// # Panics
/// Panics when `band_rows` is 0.
pub fn analyze_stream<S>(
    source: &mut S,
    band_rows: usize,
    cfg: StripConfig,
) -> Result<(Vec<ComponentRecord>, StreamStats), StreamError>
where
    S: RowSource + Send + ?Sized,
{
    let mut records = Vec::new();
    let stats = label_stream(source, band_rows, cfg, &mut records, None)?;
    Ok((records, stats))
}

/// Streams `source` through the labeler tile row by tile row, emitting
/// every component through `components` and, when given, every labeled
/// tile (and id merge) through `tiles` — pass a
/// [`CollectTiles`](crate::CollectTiles) for a whole label image, or a
/// [`SpillSink`](crate::SpillSink) (then `close` it) to spill the labels
/// to disk.
///
/// Synchronously the labeler never holds more than one tile row plus the
/// carry row of pixels. With [`StripConfig::pipelined`] row *k + 1*'s
/// tile scans overlap row *k*'s seam merge, accumulation and label output
/// on a worker thread, with the same guarantees as [`label_stream`].
pub fn label_tiles<S>(
    source: &mut S,
    cfg: StripConfig,
    components: &mut dyn ComponentSink,
    tiles: Option<&mut dyn TileSink>,
) -> Result<StreamStats, StreamError>
where
    S: TileSource + Send + ?Sized,
{
    let width = source.width();
    let scan = |state: &mut ScanState| {
        let row = source.next_tile_row()?;
        row.map(|row| Unit::Tiles(&row).scan(cfg.threads, state))
            .transpose()
    };
    drive(width, cfg, components, tiles, scan)
}

/// [`label_tiles`] collecting every [`ComponentRecord`] (emission order:
/// closure order).
pub fn analyze_tiles<S>(
    source: &mut S,
    cfg: StripConfig,
) -> Result<(Vec<ComponentRecord>, StreamStats), StreamError>
where
    S: TileSource + Send + ?Sized,
{
    let mut records = Vec::new();
    let stats = label_tiles(source, cfg, &mut records, None)?;
    Ok((records, stats))
}

/// Both drivers' body: a labeler merging what `scan` (the pull of the
/// next unit plus its [`Unit::scan`] on the driver's scan state) yields,
/// through the driver loop.
fn drive(
    width: usize,
    cfg: StripConfig,
    components: &mut dyn ComponentSink,
    mut labels: Option<&mut dyn TileSink>,
    mut scan: impl FnMut(&mut ScanState) -> Result<Option<ScannedRow>, StreamError> + Send,
) -> Result<StreamStats, StreamError> {
    let mut labeler = StripLabeler::with_config(width, cfg);
    let mut state = ScanState::new(width);
    crate::pipeline::run(
        cfg.pipelined,
        move || scan(&mut state),
        |unit| labeler.merge(unit, components, labels.as_deref_mut()),
    )?;
    Ok(labeler.finish(components))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{ComponentId, CountComponents, TileMeta};
    use crate::source::{GridSource, MemorySource};
    use ccl_image::BinaryImage;

    #[test]
    fn analyze_stream_counts_components() {
        let img = BinaryImage::parse(
            "##..##
             ......
             .####.",
        );
        let mut src = MemorySource::new(&img);
        let (records, stats) = analyze_stream(&mut src, 2, StripConfig::default()).unwrap();
        assert_eq!(stats.components, 3);
        assert_eq!(records.len(), 3);
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.bands, 2);
    }

    /// Runs `img` through [`label_stream`] in bands of `band_rows`,
    /// synchronously and pipelined.
    fn both_modes(img: &BinaryImage, band_rows: usize) -> [(Vec<ComponentRecord>, StreamStats); 2] {
        [false, true].map(|pipelined| {
            let cfg = StripConfig {
                pipelined,
                ..StripConfig::default()
            };
            analyze_stream(&mut MemorySource::new(img), band_rows, cfg).unwrap()
        })
    }

    #[test]
    fn pipelined_run_reports_two_bands_plus_carry() {
        let img = BinaryImage::from_fn(23, 37, |r, c| (r * 31 + c * 17) % 3 != 0);
        let [(sync_records, sync_stats), (records, stats)] = both_modes(&img, 4);
        assert_eq!(records, sync_records);
        assert_eq!(sync_stats.peak_resident_rows, 4 + 1);
        assert_eq!(stats.peak_resident_rows, 2 * 4 + 1);
        let peak_resident_rows = sync_stats.peak_resident_rows;
        assert_eq!(
            StreamStats {
                peak_resident_rows,
                ..stats
            },
            sync_stats
        );
    }

    /// A zero band height is refused at entry, the same way in both
    /// modes: a panic on the caller's thread, not a worker error.
    #[test]
    fn zero_band_height_panics_in_both_modes() {
        let img = BinaryImage::ones(4, 3);
        for pipelined in [false, true] {
            let cfg = StripConfig {
                pipelined,
                ..StripConfig::default()
            };
            let run = std::panic::catch_unwind(|| {
                analyze_stream(&mut MemorySource::new(&img), 0, cfg).map(|_| ())
            });
            let payload = run.expect_err("band height 0 must panic");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(
                msg, "band height must be positive",
                "pipelined: {pipelined}"
            );
        }
    }

    #[test]
    fn zero_width_stream_holds_no_rows_in_either_mode() {
        let img = BinaryImage::zeros(0, 6);
        let [(sync_records, sync_stats), (records, stats)] = both_modes(&img, 2);
        assert_eq!(records, sync_records);
        assert_eq!(stats, sync_stats);
        assert_eq!(stats.rows, 6);
        assert_eq!(stats.peak_resident_rows, 0);
    }

    #[test]
    fn analyze_tiles_counts_components() {
        let img = BinaryImage::parse(
            "##..##
             ......
             .####.",
        );
        let mut src = GridSource::from_image(&img, 2, 2);
        let (records, stats) = analyze_tiles(&mut src, StripConfig::default()).unwrap();
        assert_eq!(stats.components, 3);
        assert_eq!(records.len(), 3);
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.bands, 2);
        assert_eq!(stats.tiles, 6);
    }

    /// Runs `img` through [`label_tiles`] in `tw × th` tiles,
    /// synchronously and pipelined.
    fn both_tile_modes(
        img: &BinaryImage,
        tw: usize,
        th: usize,
    ) -> [(Vec<ComponentRecord>, StreamStats); 2] {
        [false, true].map(|pipelined| {
            let cfg = StripConfig {
                pipelined,
                ..StripConfig::default()
            };
            analyze_tiles(&mut GridSource::from_image(img, tw, th), cfg).unwrap()
        })
    }

    #[test]
    fn pipelined_run_reports_two_tile_rows_plus_carry() {
        let img = BinaryImage::from_fn(23, 37, |r, c| (r * 31 + c * 17) % 3 != 0);
        let [(sync_records, sync_stats), (records, stats)] = both_tile_modes(&img, 5, 4);
        assert_eq!(records, sync_records);
        assert_eq!(sync_stats.peak_resident_rows, 4 + 1);
        assert_eq!(stats.peak_resident_rows, 2 * 4 + 1);
        let peak_resident_rows = sync_stats.peak_resident_rows;
        assert_eq!(
            StreamStats {
                peak_resident_rows,
                ..stats
            },
            sync_stats
        );
    }

    /// A zero-width grid's tile rows are degenerate: they still have a
    /// height, but no pixels, so nothing is resident in either mode.
    #[test]
    fn zero_width_grid_holds_no_rows_in_either_mode() {
        let img = BinaryImage::zeros(0, 6);
        let [(sync_records, sync_stats), (records, stats)] = both_tile_modes(&img, 1, 2);
        assert_eq!(records, sync_records);
        assert_eq!(stats, sync_stats);
        assert_eq!(stats.rows, 6);
        assert_eq!(stats.bands, 3);
        assert_eq!(stats.peak_resident_rows, 0);
    }

    /// One call a run makes on its [`TileSink`].
    #[derive(Debug, PartialEq)]
    enum LabelEvent {
        Merge(ComponentId, ComponentId),
        Tile(TileMeta, Vec<ComponentId>),
    }

    impl TileSink for Vec<LabelEvent> {
        fn merge(&mut self, kept: ComponentId, absorbed: ComponentId) {
            self.push(LabelEvent::Merge(kept, absorbed));
        }

        fn tile(&mut self, meta: &TileMeta, gids: &[ComponentId]) -> Result<(), StreamError> {
            self.push(LabelEvent::Tile(*meta, gids.to_vec()));
            Ok(())
        }
    }

    /// The raw label output — every id merge and every tile, with its
    /// placement and emission-time ids, in call order — is the
    /// synchronous sequential run's at 1–8 threads, pipelined or not,
    /// for strips and tile grids alike.
    #[test]
    fn raw_label_output_does_not_depend_on_the_mode() {
        use ccl_datasets::synth::{noise::bernoulli, shapes::text_page, texture::stripes};
        let images = [
            bernoulli(29, 23, 0.5, 7),
            text_page(37, 31, 1, 7),
            stripes(31, 27, 5, 2, (1, 1)),
        ];
        let modes: Vec<StripConfig> = (1..=8)
            .flat_map(|threads| [false, true].map(|pipelined| StripConfig { threads, pipelined }))
            .collect();
        let strips = |img: &BinaryImage, rows: usize, cfg: StripConfig| {
            let mut events = Vec::new();
            let mut components = CountComponents::default();
            let mut src = MemorySource::new(img);
            label_stream(&mut src, rows, cfg, &mut components, Some(&mut events)).unwrap();
            events
        };
        let tiles = |img: &BinaryImage, tw: usize, th: usize, cfg: StripConfig| {
            let mut events = Vec::new();
            let mut components = CountComponents::default();
            let mut src = GridSource::from_image(img, tw, th);
            label_tiles(&mut src, cfg, &mut components, Some(&mut events)).unwrap();
            events
        };
        let mut merges = 0;
        for (i, img) in images.iter().enumerate() {
            for rows in [1, 3, 8] {
                let expected = strips(img, rows, StripConfig::default());
                merges += expected
                    .iter()
                    .filter(|e| matches!(e, LabelEvent::Merge(..)))
                    .count();
                for &cfg in &modes {
                    let got = strips(img, rows, cfg);
                    assert_eq!(got, expected, "image {i}, bands of {rows}, {cfg:?}");
                }
                for tw in [1, 4, 9] {
                    let expected = tiles(img, tw, rows, StripConfig::default());
                    for &cfg in &modes {
                        let got = tiles(img, tw, rows, cfg);
                        assert_eq!(got, expected, "image {i}, {tw}x{rows} tiles, {cfg:?}");
                    }
                }
            }
        }
        assert!(merges > 0, "no id merge exercised");
    }
}
