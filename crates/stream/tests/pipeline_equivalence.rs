//! Integration tests: prefetched and pipelined execution is equivalent to
//! the synchronous paths — labels and analysis bit-identical — across all
//! 15 synthetic generator families, band heights and tile shapes; and a
//! failing or panicking source behind a prefetcher surfaces a typed error
//! to the caller, never a hang.

use proptest::prelude::*;

use ccl_core::seq::aremsp;
use ccl_core::verify::labelings_equivalent;
use ccl_datasets::synth::noise::bernoulli;
use ccl_datasets::synth::stream::bernoulli_stream;
use ccl_datasets::synth::{family_image, FAMILIES};
use ccl_image::BinaryImage;
use ccl_stream::{
    analyze_stream, analyze_tiles, label_stream, CollectTiles, CountComponents, GridSource,
    MemorySource, PrefetchRows, RowSource, StreamError, StreamStats, StripConfig, TileSource,
};

/// The grid config that runs the pipelined executor.
fn pipelined_tiles() -> StripConfig {
    StripConfig {
        pipelined: true,
        ..StripConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tentpole acceptance, rows: a prefetched source (any depth) feeding
    /// `analyze_stream` — synchronous or pipelined (decode ∥ scan ∥
    /// merge), any thread count — produces bit-identical records *and*
    /// stats to the unprefetched synchronous path, across band heights
    /// and all generators; a pipelined run's residency stays within two
    /// bands + the carry row.
    #[test]
    fn prefetched_rows_bit_identical(
        gen in 0usize..FAMILIES,
        w in 1usize..=18,
        h in 1usize..=18,
        band in 1usize..=19,
        depth in 1usize..=3,
        threads in 1usize..=4,
        pipelined in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let img = family_image(gen, w, h, seed);
        let mut sync_src = MemorySource::new(img.clone());
        let (sync_records, sync_stats) =
            analyze_stream(&mut sync_src, band, StripConfig::default()).unwrap();
        let mut pf = PrefetchRows::with_depth(MemorySource::new(img), band, depth);
        let cfg = StripConfig { threads, pipelined };
        let (records, stats) = analyze_stream(&mut pf, band, cfg).unwrap();
        prop_assert_eq!(records, sync_records, "generator {} band {} {:?}", gen, band, cfg);
        prop_assert!(stats.peak_resident_rows <= 2 * band + 1);
        let peak_resident_rows = if pipelined {
            sync_stats.peak_resident_rows
        } else {
            stats.peak_resident_rows
        };
        prop_assert_eq!(StreamStats { peak_resident_rows, ..stats }, sync_stats);
    }

    /// A prefetch band height different from the consumer's: the adapter
    /// splits bands (still never exceeding `max_rows`), and the analysis
    /// stays identical by band-height invariance.
    #[test]
    fn prefetched_rows_with_mismatched_band_heights(
        gen in 0usize..FAMILIES,
        w in 1usize..=16,
        h in 1usize..=16,
        band in 1usize..=17,
        pf_band in 1usize..=17,
        seed in 0u64..1000,
    ) {
        let img = family_image(gen, w, h, seed);
        let mut sync_src = MemorySource::new(img.clone());
        let (sync_records, _) =
            analyze_stream(&mut sync_src, band, StripConfig::default()).unwrap();
        let mut pf = PrefetchRows::new(MemorySource::new(img), pf_band);
        let (records, stats) = analyze_stream(&mut pf, band, StripConfig::default()).unwrap();
        prop_assert_eq!(stats.components as usize, records.len());
        // splitting changes the effective band boundaries: emission order
        // and id numbering shift (open components that merge consume
        // ids), but every per-component feature is band-invariant
        let features = |records: &[ccl_stream::ComponentRecord]| {
            let mut f: Vec<_> = records
                .iter()
                .map(|r| (r.anchor, r.area, r.bbox, r.centroid, r.perimeter, r.holes))
                .collect();
            f.sort_unstable_by_key(|x| x.0);
            f
        };
        prop_assert_eq!(
            features(&records),
            features(&sync_records),
            "band {} pf_band {}",
            band,
            pf_band
        );
    }

    /// Tentpole acceptance, tiles: prefetched tile rows through the grid
    /// driver — synchronous or pipelined (decode ∥ scan ∥ merge), any
    /// thread count — produce bit-identical records and stats to the
    /// unprefetched synchronous grid across tile shapes and all
    /// generators; a pipelined run's residency stays within two tile rows
    /// + the carry row.
    #[test]
    fn prefetched_tiles_bit_identical(
        gen in 0usize..FAMILIES,
        w in 1usize..=16,
        h in 1usize..=16,
        tw in 1usize..=9,
        th in 1usize..=9,
        threads in 1usize..=4,
        pipelined in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let img = family_image(gen, w, h, seed);
        let mut sync_src = GridSource::from_image(&img, tw, th);
        let (sync_records, sync_stats) =
            analyze_tiles(&mut sync_src, StripConfig::default()).unwrap();

        let mut staged = GridSource::new(PrefetchRows::new(MemorySource::new(img), th), tw, th);
        let cfg = StripConfig { threads, pipelined };
        let (records, stats) = analyze_tiles(&mut staged, cfg).unwrap();
        prop_assert_eq!(records, sync_records, "generator {} tiles {}x{} {:?}", gen, tw, th, cfg);
        prop_assert!(stats.peak_resident_rows <= 2 * th + 1);
        let peak_resident_rows = if pipelined {
            sync_stats.peak_resident_rows
        } else {
            stats.peak_resident_rows
        };
        prop_assert_eq!(StreamStats { peak_resident_rows, ..stats }, sync_stats);
    }

    /// Prefetched strips reconcile into the exact whole-image partition
    /// (the labeled-output path composes with prefetching too).
    #[test]
    fn prefetched_strip_labels_reconcile(
        gen in 0usize..FAMILIES,
        w in 1usize..=14,
        h in 1usize..=14,
        band in 1usize..=15,
        seed in 0u64..1000,
    ) {
        let img = family_image(gen, w, h, seed);
        let mut pf = PrefetchRows::new(MemorySource::new(img.clone()), band);
        let mut strips = CollectTiles::default();
        let mut comps = CountComponents::default();
        let stats =
            label_stream(&mut pf, band, StripConfig::default(), &mut comps, Some(&mut strips))
                .unwrap();
        let li = strips.into_label_image();
        let reference = aremsp(&img);
        prop_assert_eq!(stats.components, reference.num_components() as u64);
        prop_assert!(labelings_equivalent(&li, &reference));
    }
}

/// A row source that delivers `good` bands, then fails with a decode
/// error — the mid-stream failure regression shape.
struct FailingRows {
    good: usize,
}

impl RowSource for FailingRows {
    fn width(&self) -> usize {
        6
    }
    fn rows_remaining(&self) -> Option<usize> {
        None
    }
    fn next_band(&mut self, max_rows: usize) -> Result<Option<BinaryImage>, StreamError> {
        if self.good == 0 {
            return Err(StreamError::Image(ccl_image::ImageError::Parse(
                "corrupt band 3".into(),
            )));
        }
        self.good -= 1;
        Ok(Some(BinaryImage::ones(6, max_rows.min(2))))
    }
}

/// Regression: a `RowSource` failing mid-stream behind a prefetcher
/// surfaces the *typed* source error through the whole driver stack (the
/// error used to be indistinguishable from end-of-stream in naive
/// channel-based designs — and a blocked worker could hang the caller).
#[test]
fn midstream_row_failure_surfaces_through_driver() {
    let mut pf = PrefetchRows::new(FailingRows { good: 3 }, 2);
    let err = analyze_stream(&mut pf, 2, StripConfig::default()).unwrap_err();
    match err {
        StreamError::Image(e) => assert!(e.to_string().contains("corrupt band 3")),
        other => panic!("expected the source's Image error, got {other}"),
    }
}

/// Regression: the same mid-stream failure through the tile stack — the
/// error crosses *two* workers (prefetcher + pipelined scan stage) and
/// still arrives typed.
#[test]
fn midstream_tile_failure_surfaces_through_pipelined_driver() {
    let mut staged = GridSource::new(PrefetchRows::new(FailingRows { good: 4 }, 2), 3, 2);
    let err = analyze_tiles(&mut staged, pipelined_tiles()).unwrap_err();
    match err {
        StreamError::Image(e) => {
            assert!(e.to_string().contains("corrupt band 3"))
        }
        other => panic!("expected the source's Image error, got {other}"),
    }
}

/// Regression: a *panicking* source becomes a typed `Worker` error, not
/// a deadlock and not a silent end-of-stream — whether it panics behind
/// a prefetcher or in the pipelined driver's own scan stage.
#[test]
fn panicking_tile_source_surfaces_through_pipelined_driver() {
    struct PanicsMidStream {
        good: usize,
    }
    impl RowSource for PanicsMidStream {
        fn width(&self) -> usize {
            4
        }
        fn rows_remaining(&self) -> Option<usize> {
            None
        }
        fn next_band(&mut self, max_rows: usize) -> Result<Option<BinaryImage>, StreamError> {
            assert!(self.good > 0, "generator state corrupted");
            self.good -= 1;
            Ok(Some(BinaryImage::ones(4, max_rows.min(2))))
        }
    }
    let stacks: [Box<dyn TileSource + Send>; 2] = [
        Box::new(GridSource::new(
            PrefetchRows::new(PanicsMidStream { good: 2 }, 2),
            4,
            2,
        )),
        Box::new(GridSource::new(PanicsMidStream { good: 2 }, 4, 2)),
    ];
    for mut staged in stacks {
        let err = analyze_tiles(&mut *staged, pipelined_tiles()).unwrap_err();
        match err {
            StreamError::Worker(msg) => {
                assert!(msg.contains("corrupted"), "{msg}")
            }
            other => panic!("expected Worker error, got {other:?}"),
        }
    }
}

/// Acceptance-criteria shape at CI-friendly scale: a generator-fed stream
/// behind the full decode ∥ scan ∥ merge pipeline matches whole-image
/// AREMSP with the pipelined residency bound intact.
#[test]
fn staged_pipeline_matches_whole_image_at_scale() {
    let (w, h, tile) = (256usize, 2048usize, 64usize);
    let source = PrefetchRows::new(bernoulli_stream(w, h, 0.5, 123), tile);
    let mut staged = GridSource::new(source, tile, tile);
    let (records, stats) = analyze_tiles(&mut staged, pipelined_tiles()).unwrap();
    assert_eq!(stats.rows, h);
    assert!(stats.peak_resident_rows <= 2 * tile + 1);

    let reference = aremsp(&bernoulli(w, h, 0.5, 123));
    assert_eq!(stats.components, reference.num_components() as u64);
    assert_eq!(records.len() as u64, stats.components);
}

/// The full-scale stress run: 67 Mpixel through the composed
/// decode ∥ scan ∥ merge pipeline in 512×512 tiles, analysis identical to
/// whole-image AREMSP, ≤ 2 tile rows + carry resident. Ignored by
/// default; run with `just pipeline-stress`.
#[test]
#[ignore = "67-Mpixel stress run; use cargo test --release -- --ignored"]
fn gigascale_staged_pipeline_bounded_memory() {
    let (w, h, tile) = (4096usize, 16_384usize, 512usize);
    let source = PrefetchRows::new(bernoulli_stream(w, h, 0.5, 9001), tile);
    let mut staged = GridSource::new(source, tile, tile);
    let (_, stats) = analyze_tiles(&mut staged, pipelined_tiles()).unwrap();
    assert_eq!(stats.rows, h);
    assert_eq!(stats.peak_resident_rows, 2 * tile + 1);

    let reference = aremsp(&bernoulli(w, h, 0.5, 9001));
    assert_eq!(stats.components, reference.num_components() as u64);
}
