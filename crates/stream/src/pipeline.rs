//! Pipelined band execution — overlap band *k*'s merge with band
//! *k + 1*'s scan (the strip-labeler counterpart of `ccl-tiles`'
//! pipelined executor).
//!
//! The strip labeler's work per band splits into two stages with one
//! dependency between consecutive bands:
//!
//! * **scan stage** — pull the next band from the source, scan it
//!   (two-line + RemSP or PAREMSP worker groups), merge the
//!   chunk-boundary seams and build the partial accumulator
//!   tables ([`scan_band`](crate::labeler)): independent of everything
//!   before it, because carried ids are reserved by the width bound
//!   `⌈w/2⌉` rather than the actual open-component count;
//! * **merge stage** — the carry seam, the per-label accumulator fold,
//!   compaction and component emission ([`crate::carry`], driven by
//!   `StripLabeler::merge_scanned_band`): inherently sequential, because
//!   each band's carry feeds the next.
//!
//! The executor runs the scan stage on a worker thread and the merge
//! stage on the caller's, handing scanned bands across a **rendezvous
//! channel** (capacity 0): the scanner cannot run more than one band
//! ahead, so at any instant at most *two* bands are alive — band *k*
//! (labels, under merge) and band *k + 1* (pixels + labels, under scan)
//! — plus the carried boundary row. That is the pipelined residency
//! bound `2 × band_rows + 1` pixel rows, reported through
//! [`StreamStats::peak_resident_rows`](crate::StreamStats).
//!
//! Errors never hang the pipeline: a failing source or scan surfaces
//! through the channel disconnect + join, a failing merge drops the
//! receiver so the scanner's blocked send aborts, and a panicking source
//! is converted into [`StreamError::Worker`].

use std::sync::mpsc;

use crate::analysis::{ComponentSink, LabelSink};
use crate::error::StreamError;
use crate::labeler::{scan_band, StreamStats, StripConfig, StripLabeler};
use crate::source::RowSource;

/// Streams `source` through a strip labeler with the two-stage pipeline
/// described in the module docs. Output (components, merges, strips) is
/// bit-identical to the synchronous drivers; only
/// [`StreamStats::peak_resident_rows`](crate::StreamStats) differs,
/// reporting the pipeline's two-band + carry residency.
pub(crate) fn run_pipelined<S>(
    source: &mut S,
    band_rows: usize,
    cfg: StripConfig,
    components: &mut dyn ComponentSink,
    mut labels_sink: Option<&mut dyn LabelSink>,
) -> Result<StreamStats, StreamError>
where
    S: RowSource + Send + ?Sized,
{
    let width = source.width();
    // No carry row can hold more open components than ⌈w/2⌉ (adjacent
    // foreground pixels share one), so reserving that many low slots
    // makes every scan independent of the previous band's compaction.
    let carry_cap = width.div_ceil(2) as u32;
    let mut labeler = StripLabeler::with_config(width, cfg.clone());

    // Residency: while the merge stage holds band k, the scan stage holds
    // at most band k + 1 (rendezvous channel — the send blocks until the
    // merge stage takes the band). Deterministic accounting: the max over
    // consecutive band-height pairs, plus the carry row once two or more
    // bands exist.
    let mut prev_h = 0usize;
    let mut max_pair = 0usize;
    let mut nbands = 0usize;

    let (tx, rx) = mpsc::sync_channel(0);
    let scan_cfg = cfg;
    let merge_result = std::thread::scope(|s| {
        let scanner = s.spawn(move || -> Result<(), StreamError> {
            let mut r0 = 0usize;
            while let Some(band) = source.next_band(band_rows)? {
                let scanned = scan_band(&band, width, &scan_cfg, carry_cap, r0)?;
                r0 += band.height();
                drop(band); // pixels are dead once scanned
                if tx.send(scanned).is_err() {
                    break; // merge stage stopped early (error): unblock and exit
                }
            }
            Ok(())
        });

        let mut merged: Result<(), StreamError> = Ok(());
        while let Ok(band) = rx.recv() {
            if !band.degenerate {
                nbands += 1;
                max_pair = max_pair.max(prev_h + band.h);
                prev_h = band.h;
            }
            let sink_ref = labels_sink.as_mut().map(|s| &mut **s as &mut dyn LabelSink);
            if let Err(e) = labeler.merge_scanned_band(band, components, sink_ref) {
                merged = Err(e);
                break;
            }
        }
        // A merge error leaves bands queued: drop the receiver so the
        // scanner's blocked send fails and the thread exits.
        drop(rx);
        let scanned = match scanner.join() {
            Ok(r) => r,
            Err(payload) => Err(StreamError::worker_panic(payload.as_ref())),
        };
        merged.and(scanned)
    });
    merge_result?;

    let mut stats = labeler.finish(components);
    stats.peak_resident_rows = max_pair + usize::from(nbands >= 2);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{CollectLabelImage, ComponentRecord, CountComponents};
    use crate::source::{MemorySource, OwnedMemorySource};
    use ccl_image::BinaryImage;

    #[test]
    fn pipelined_output_matches_synchronous() {
        let img = BinaryImage::from_fn(23, 37, |r, c| (r * 31 + c * 17) % 3 != 0);
        let mut sync_records: Vec<ComponentRecord> = Vec::new();
        let mut sync_src = MemorySource::new(&img);
        let sync_stats = crate::driver::label_stream(
            &mut sync_src,
            4,
            StripConfig::default(),
            &mut sync_records,
        )
        .unwrap();

        let mut records: Vec<ComponentRecord> = Vec::new();
        let mut src = OwnedMemorySource::new(img);
        let stats = run_pipelined(&mut src, 4, StripConfig::default(), &mut records, None).unwrap();
        assert_eq!(records, sync_records);
        assert_eq!(stats.components, sync_stats.components);
        assert_eq!(stats.rows, sync_stats.rows);
        assert_eq!(stats.bands, sync_stats.bands);
        // two 4-row bands + the carry row
        assert_eq!(stats.peak_resident_rows, 2 * 4 + 1);
    }

    #[test]
    fn pipelined_strips_reconcile_to_the_same_partition() {
        let img = BinaryImage::from_fn(17, 29, |r, c| (r * 7 + c * 5) % 4 != 0);
        let mut comps = CountComponents::default();
        let mut strips = CollectLabelImage::default();
        let mut src = OwnedMemorySource::new(img.clone());
        let stats = run_pipelined(
            &mut src,
            3,
            StripConfig::default(),
            &mut comps,
            Some(&mut strips),
        )
        .unwrap();
        let li = strips.into_label_image();
        assert_eq!(li.num_components() as u64, stats.components);
        let reference = ccl_core::seq::aremsp(&img);
        assert!(ccl_core::verify::labelings_equivalent(&li, &reference));
    }

    #[test]
    fn panicking_source_surfaces_as_worker_error() {
        struct PanickingSource {
            left: usize,
        }
        impl RowSource for PanickingSource {
            fn width(&self) -> usize {
                4
            }
            fn rows_remaining(&self) -> Option<usize> {
                None
            }
            fn next_band(&mut self, _max: usize) -> Result<Option<BinaryImage>, StreamError> {
                if self.left == 0 {
                    panic!("generator exploded mid-stream");
                }
                self.left -= 1;
                Ok(Some(BinaryImage::ones(4, 2)))
            }
        }
        let mut src = PanickingSource { left: 3 };
        let mut comps = CountComponents::default();
        let err = run_pipelined(&mut src, 2, StripConfig::default(), &mut comps, None).unwrap_err();
        match err {
            StreamError::Worker(msg) => assert!(msg.contains("exploded"), "{msg}"),
            other => panic!("expected Worker error, got {other:?}"),
        }
    }
}
