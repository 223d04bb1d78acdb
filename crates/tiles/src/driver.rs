//! The grid engine's driver — pull a whole [`TileSource`] through a
//! [`TileGridLabeler`] with `ccl-stream`'s driver loop, synchronously or
//! pipelined.

use ccl_stream::scan::ScannedRow;
use ccl_stream::{ComponentRecord, ComponentSink};

use crate::error::TilesError;
use crate::labeler::{scan_row, TileGridConfig, TileGridLabeler, TileGridStats};
use crate::sink::TileSink;
use crate::source::TileSource;

/// Streams `source` through a grid labeler tile row by tile row, emitting
/// every component through `components` and, when given, every labeled
/// tile (and id merge) through `tiles` — pass a
/// [`CollectTiles`](crate::CollectTiles) for a whole label image, or a
/// [`SpillSink`](crate::SpillSink) (then
/// [`close`](crate::SpillSink::close) it) to spill the labels to disk.
///
/// Synchronously the labeler never holds more than one tile row plus the
/// carry row of pixels. With [`TileGridConfig::pipelined`] row *k + 1*'s
/// tile scans overlap row *k*'s seam merge, accumulation and spill on a
/// worker thread. Both modes run `ccl-stream`'s driver loop
/// ([`ccl_stream::pipeline::run`]): output is identical, and
/// [`TileGridStats::peak_resident_rows`] reports the pipelined run's
/// two-tile-row + carry residency. A panicking stage surfaces as
/// [`TilesError::Stream`]`(`[`StreamError::Worker`](ccl_stream::StreamError::Worker)`)`.
pub fn label_tiles<S>(
    source: &mut S,
    cfg: TileGridConfig,
    components: &mut dyn ComponentSink,
    mut tiles: Option<&mut dyn TileSink>,
) -> Result<TileGridStats, TilesError>
where
    S: TileSource + Send + ?Sized,
{
    let width = source.width();
    let mut labeler = TileGridLabeler::with_config(width, cfg);
    let peak = ccl_stream::pipeline::run(
        width,
        cfg.pipelined,
        |carry_cap, r0| match source.next_tile_row()? {
            Some(row) => scan_row(&row, width, cfg.threads, carry_cap, r0).map(Some),
            None => Ok(None),
        },
        |row| {
            labeler.merge_scanned(row, components, tiles.as_deref_mut())?;
            Ok(labeler.open_components() as u32)
        },
        ScannedRow::rows,
    )?;
    let mut stats = labeler.finish(components);
    stats.peak_resident_rows = peak;
    Ok(stats)
}

/// [`label_tiles`] collecting every [`ComponentRecord`] (emission order:
/// closure order).
pub fn analyze_tiles<S>(
    source: &mut S,
    cfg: TileGridConfig,
) -> Result<(Vec<ComponentRecord>, TileGridStats), TilesError>
where
    S: TileSource + Send + ?Sized,
{
    let mut records = Vec::new();
    let stats = label_tiles(source, cfg, &mut records, None)?;
    Ok((records, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{SpillFormat, SpillSink};
    use crate::source::GridSource;
    use ccl_image::BinaryImage;
    use ccl_stream::CountComponents;

    #[test]
    fn analyze_tiles_counts_components() {
        let img = BinaryImage::parse(
            "##..##
             ......
             .####.",
        );
        let mut src = GridSource::from_image(&img, 2, 2);
        let (records, stats) = analyze_tiles(&mut src, TileGridConfig::default()).unwrap();
        assert_eq!(stats.components, 3);
        assert_eq!(records.len(), 3);
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.tile_rows, 2);
        assert_eq!(stats.tiles, 6);
    }

    /// Runs `img` through [`label_tiles`] in `tw × th` tiles,
    /// synchronously and pipelined.
    fn both_modes(
        img: &BinaryImage,
        tw: usize,
        th: usize,
    ) -> [(Vec<ComponentRecord>, TileGridStats); 2] {
        [false, true].map(|pipelined| {
            let cfg = TileGridConfig {
                pipelined,
                ..TileGridConfig::default()
            };
            analyze_tiles(&mut GridSource::from_image(img, tw, th), cfg).unwrap()
        })
    }

    #[test]
    fn pipelined_run_reports_two_tile_rows_plus_carry() {
        let img = BinaryImage::from_fn(23, 37, |r, c| (r * 31 + c * 17) % 3 != 0);
        let [(sync_records, sync_stats), (records, stats)] = both_modes(&img, 5, 4);
        assert_eq!(records, sync_records);
        assert_eq!(sync_stats.peak_resident_rows, 4 + 1);
        assert_eq!(stats.peak_resident_rows, 2 * 4 + 1);
        let peak_resident_rows = sync_stats.peak_resident_rows;
        assert_eq!(
            TileGridStats {
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
        let [(sync_records, sync_stats), (records, stats)] = both_modes(&img, 1, 2);
        assert_eq!(records, sync_records);
        assert_eq!(stats, sync_stats);
        assert_eq!(stats.rows, 6);
        assert_eq!(stats.tile_rows, 3);
        assert_eq!(stats.peak_resident_rows, 0);
    }

    #[test]
    fn spill_sink_end_to_end() {
        let dir = crate::sink::temp_spill_dir("driver");
        let img = BinaryImage::parse(
            "#.#.#
             #.#.#
             #####",
        );
        let mut src = GridSource::from_image(&img, 2, 2);
        let mut spill = SpillSink::create(&dir, SpillFormat::Pgm16).unwrap();
        let mut comps = CountComponents::default();
        let stats = label_tiles(
            &mut src,
            TileGridConfig::default(),
            &mut comps,
            Some(&mut spill),
        )
        .unwrap();
        let manifest = spill.close().unwrap();
        assert_eq!(stats.components, 1);
        assert_eq!(manifest.width, 5);
        assert_eq!(manifest.rows, 3);
        let li = crate::sink::read_spilled_label_image(&dir).unwrap();
        let reference = ccl_core::seq::aremsp(&img);
        assert!(ccl_core::verify::labelings_equivalent(&li, &reference));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
