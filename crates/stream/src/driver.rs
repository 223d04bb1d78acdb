//! The drivers — pull a whole [`RowSource`] (in bands) or [`TileSource`]
//! (in tile rows) through a [`StripLabeler`] with the one driver loop,
//! synchronously or pipelined.

use crate::analysis::{ComponentRecord, ComponentSink, TileSink};
use crate::error::StreamError;
use crate::labeler::{StreamStats, StripConfig, StripLabeler, Unit};
use crate::scan::ScannedRow;
use crate::source::{RowSource, TileSource};

/// Streams `source` through the labeler in bands of `band_rows`,
/// emitting every component through `components` and, when given, every
/// band's labels as one full-width tile (and every id merge) through
/// `labels` — pass a [`CollectTiles`](crate::CollectTiles) to reconcile
/// them into a whole label image, or a `ccl-tiles` `SpillSink` to spill
/// them to disk.
///
/// Synchronously the labeler never holds more than one band plus the
/// carry row of pixels. With [`StripConfig::pipelined`] band *k + 1*'s
/// scan overlaps band *k*'s merge on a worker thread. Both modes run the
/// one driver loop ([`crate::pipeline::run`]): output is identical, and
/// [`StreamStats::peak_resident_rows`] reports the pipelined run's
/// two-band + carry residency. A panicking stage surfaces as
/// [`StreamError::Worker`].
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
    let width = source.width();
    drive(
        width,
        cfg,
        true,
        components,
        labels,
        |carry_cap, r0| match source.next_band(band_rows)? {
            Some(band) => Unit::Band(&band)
                .scan(width, cfg.threads, carry_cap, r0)
                .map(Some),
            None => Ok(None),
        },
    )
}

/// [`label_stream`] collecting every [`ComponentRecord`] (emission order:
/// closure order).
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
/// `ccl-tiles` `SpillSink` (then `close` it) to spill the labels to disk.
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
    drive(
        width,
        cfg,
        false,
        components,
        tiles,
        |carry_cap, r0| match source.next_tile_row()? {
            Some(row) => Unit::Tiles(&row)
                .scan(width, cfg.threads, carry_cap, r0)
                .map(Some),
            None => Ok(None),
        },
    )
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
/// next unit plus its [`Unit::scan`]) yields, through the driver loop.
/// `one_tile` says how the units' labels leave ([`Unit::one_tile`]).
fn drive(
    width: usize,
    cfg: StripConfig,
    one_tile: bool,
    components: &mut dyn ComponentSink,
    mut labels: Option<&mut dyn TileSink>,
    scan: impl FnMut(u32, usize) -> Result<Option<ScannedRow>, StreamError> + Send,
) -> Result<StreamStats, StreamError> {
    let mut labeler = StripLabeler::with_config(width, cfg);
    let peak = crate::pipeline::run(
        width,
        cfg.pipelined,
        scan,
        |unit| {
            labeler.merge_scanned(unit, one_tile, components, labels.as_deref_mut())?;
            Ok(labeler.open_components() as u32)
        },
        ScannedRow::rows,
    )?;
    let mut stats = labeler.finish(components);
    stats.peak_resident_rows = peak;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
