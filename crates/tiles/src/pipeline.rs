//! Pipelined tile-row execution — overlap row *k*'s merge with row
//! *k + 1*'s scans.
//!
//! The grid labeler's work per tile row splits into two stages with one
//! dependency between consecutive rows:
//!
//! * **scan stage** — pull the next tile row from the source, scan every
//!   tile, merge the vertical seams (`scan_tile_row`): independent of
//!   everything before it, because carried ids are reserved by the width
//!   bound `⌈w/2⌉` rather than the actual open-component count;
//! * **merge stage** — the horizontal seam against the carry row, the
//!   accumulator fold, compaction, component emission and (optionally)
//!   tile spilling (`TileGridLabeler::merge_scanned`): inherently
//!   sequential, because each row's carry feeds the next.
//!
//! The executor here runs the scan stage on a worker thread and the merge
//! stage on the caller's thread, handing scanned rows across a
//! **rendezvous channel** (capacity 0): the scanner cannot run more than
//! one tile row ahead, so at any instant at most *two* tile rows are
//! alive — row *k* (labels, under merge) and row *k + 1* (pixels + labels,
//! under scan) — plus the carried boundary row. That is the pipelined
//! residency bound `2 × tile_height + 1` pixel rows, reported through
//! [`TileGridStats::peak_resident_rows`].
//!
//! Errors never hang the pipeline: a failing source or scan surfaces
//! through the channel disconnect + join, a failing merge/sink drops the
//! receiver so the scanner's blocked send aborts, and a panicking source
//! is converted into [`TilesError::Worker`].

use std::sync::mpsc;

use ccl_stream::ComponentSink;

use crate::error::TilesError;
use crate::labeler::{scan_tile_row, TileGridConfig, TileGridLabeler, TileGridStats};
use crate::sink::TileSink;
use crate::source::TileSource;

/// Streams `source` through a grid labeler with the two-stage pipeline
/// described in the module docs. Output (components, merges, tiles) is
/// bit-identical to the synchronous drivers; only
/// [`TileGridStats::peak_resident_rows`] differs, reporting the
/// pipeline's two-tile-row + carry residency.
pub(crate) fn run_pipelined<S>(
    source: &mut S,
    cfg: TileGridConfig,
    components: &mut dyn ComponentSink,
    mut sink: Option<&mut dyn TileSink>,
) -> Result<TileGridStats, TilesError>
where
    S: TileSource + Send + ?Sized,
{
    let width = source.width();
    // No carry row can hold more open components than ⌈w/2⌉ (adjacent
    // foreground pixels share one), so reserving that many low slots
    // makes every scan independent of the previous row's compaction.
    let carry_cap = width.div_ceil(2) as u32;
    let mut labeler = TileGridLabeler::with_config(width, cfg.clone());

    // Residency: while the merge stage holds row k, the scan stage holds
    // at most row k + 1 (rendezvous channel — the send blocks until the
    // merge stage takes the row). Deterministic accounting: the max over
    // consecutive row-height pairs, plus the carry row once two or more
    // rows exist.
    let mut prev_th = 0usize;
    let mut max_pair = 0usize;
    let mut nrows = 0usize;

    let (tx, rx) = mpsc::sync_channel(0);
    let scan_cfg = cfg;
    let merge_result = std::thread::scope(|s| {
        let scanner = s.spawn(move || -> Result<(), TilesError> {
            let mut r0 = 0usize;
            while let Some(tiles) = source.next_tile_row()? {
                let row = scan_tile_row(&tiles, width, &scan_cfg, carry_cap, r0)?;
                r0 += row.th;
                drop(tiles); // pixels are dead once scanned
                if tx.send(row).is_err() {
                    break; // merge stage stopped early (error): unblock and exit
                }
            }
            Ok(())
        });

        let mut merged: Result<(), TilesError> = Ok(());
        while let Ok(row) = rx.recv() {
            if !row.degenerate {
                nrows += 1;
                max_pair = max_pair.max(prev_th + row.th);
                prev_th = row.th;
            }
            let sink_ref = sink.as_mut().map(|s| &mut **s as &mut dyn TileSink);
            if let Err(e) = labeler.merge_scanned(row, components, sink_ref) {
                merged = Err(e);
                break;
            }
        }
        // A merge error leaves rows queued: drop the receiver so the
        // scanner's blocked send fails and the thread exits.
        drop(rx);
        let scanned = match scanner.join() {
            Ok(r) => r,
            Err(payload) => Err(TilesError::worker_panic(payload.as_ref())),
        };
        merged.and(scanned)
    });
    merge_result?;

    let mut stats = labeler.finish(components);
    stats.peak_resident_rows = max_pair + usize::from(nrows >= 2);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::GridSource;
    use ccl_image::BinaryImage;
    use ccl_stream::{ComponentRecord, CountComponents};

    #[test]
    fn pipelined_output_matches_synchronous() {
        let img = BinaryImage::from_fn(23, 37, |r, c| (r * 31 + c * 17) % 3 != 0);
        let mut sync_records: Vec<ComponentRecord> = Vec::new();
        let mut sync_src = GridSource::from_image(&img, 5, 4);
        let sync_stats =
            crate::driver::label_tiles(&mut sync_src, TileGridConfig::default(), &mut sync_records)
                .unwrap();

        let mut records: Vec<ComponentRecord> = Vec::new();
        let mut src = GridSource::from_image(&img, 5, 4);
        let stats = run_pipelined(&mut src, TileGridConfig::default(), &mut records, None).unwrap();
        assert_eq!(records, sync_records);
        assert_eq!(stats.components, sync_stats.components);
        assert_eq!(stats.rows, sync_stats.rows);
        assert_eq!(stats.tiles, sync_stats.tiles);
        // two 4-row tile rows + the carry row
        assert_eq!(stats.peak_resident_rows, 2 * 4 + 1);

        // zero-width grid: no row holds pixels, so nothing is resident
        let empty = BinaryImage::zeros(0, 6);
        let mut sync_records: Vec<ComponentRecord> = Vec::new();
        let mut sync_src = GridSource::from_image(&empty, 1, 2);
        let sync_stats =
            crate::driver::label_tiles(&mut sync_src, TileGridConfig::default(), &mut sync_records)
                .unwrap();
        let mut records: Vec<ComponentRecord> = Vec::new();
        let mut src = GridSource::from_image(&empty, 1, 2);
        let stats = run_pipelined(&mut src, TileGridConfig::default(), &mut records, None).unwrap();
        assert_eq!(records, sync_records);
        assert_eq!(stats, sync_stats);
        assert_eq!(stats.rows, 6);
        assert_eq!(stats.peak_resident_rows, 0);
    }

    #[test]
    fn merge_error_does_not_hang_the_scanner() {
        struct FailingSink;
        impl TileSink for FailingSink {
            fn merge(&mut self, _: u64, _: u64) {}
            fn tile(&mut self, _: &crate::sink::TileMeta, _: &[u64]) -> Result<(), TilesError> {
                Err(TilesError::Manifest("sink refused".into()))
            }
        }
        let img = BinaryImage::ones(8, 32);
        let mut src = GridSource::from_image(&img, 4, 4);
        let mut comps = CountComponents::default();
        let mut sink = FailingSink;
        let err = run_pipelined(
            &mut src,
            TileGridConfig::default(),
            &mut comps,
            Some(&mut sink),
        )
        .unwrap_err();
        assert!(matches!(err, TilesError::Manifest(_)));
    }

    #[test]
    fn panicking_source_surfaces_as_worker_error() {
        struct PanickingSource {
            left: usize,
        }
        impl TileSource for PanickingSource {
            fn width(&self) -> usize {
                4
            }
            fn tile_width(&self) -> usize {
                4
            }
            fn tile_height(&self) -> usize {
                2
            }
            fn rows_remaining(&self) -> Option<usize> {
                None
            }
            fn next_tile_row(&mut self) -> Result<Option<Vec<BinaryImage>>, TilesError> {
                if self.left == 0 {
                    panic!("generator exploded mid-stream");
                }
                self.left -= 1;
                Ok(Some(vec![BinaryImage::ones(4, 2)]))
            }
        }
        let mut src = PanickingSource { left: 3 };
        let mut comps = CountComponents::default();
        let err = run_pipelined(&mut src, TileGridConfig::default(), &mut comps, None).unwrap_err();
        match err {
            TilesError::Worker(msg) => assert!(msg.contains("exploded"), "{msg}"),
            other => panic!("expected Worker error, got {other:?}"),
        }
    }
}
