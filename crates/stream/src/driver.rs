//! The strip engine's driver — pull a whole [`RowSource`] through a
//! [`StripLabeler`] with the shared driver loop, synchronously or
//! pipelined.

use crate::analysis::{ComponentRecord, ComponentSink, LabelSink};
use crate::error::StreamError;
use crate::labeler::{scan_band, StreamStats, StripConfig, StripLabeler};
use crate::scan::ScannedRow;
use crate::source::RowSource;

/// Streams `source` through a strip labeler in bands of `band_rows`,
/// emitting every component through `components` and, when given, every
/// labeled strip (and id merge) through `labels` — pass a
/// [`CollectLabelImage`](crate::CollectLabelImage) to reconcile the
/// strips into a whole label image.
///
/// Synchronously the labeler never holds more than one band plus the
/// carry row of pixels. With [`StripConfig::pipelined`] band *k + 1*'s
/// scan overlaps band *k*'s merge on a worker thread. Both modes run the
/// one driver loop ([`crate::pipeline::run`]): output is identical, and
/// [`StreamStats::peak_resident_rows`] reports the pipelined run's
/// two-band + carry residency.
pub fn label_stream<S>(
    source: &mut S,
    band_rows: usize,
    cfg: StripConfig,
    components: &mut dyn ComponentSink,
    mut labels: Option<&mut dyn LabelSink>,
) -> Result<StreamStats, StreamError>
where
    S: RowSource + Send + ?Sized,
{
    let width = source.width();
    let mut labeler = StripLabeler::with_config(width, cfg);
    let peak = crate::pipeline::run(
        width,
        cfg.pipelined,
        |carry_cap, r0| match source.next_band(band_rows)? {
            Some(band) => scan_band(&band, width, cfg.threads, carry_cap, r0).map(Some),
            None => Ok(None),
        },
        |band| {
            labeler.merge_scanned_band(band, components, labels.as_deref_mut());
            Ok(labeler.open_components() as u32)
        },
        ScannedRow::rows,
    )?;
    let mut stats = labeler.finish(components);
    stats.peak_resident_rows = peak;
    Ok(stats)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemorySource;
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
}
