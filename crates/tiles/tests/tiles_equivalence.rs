//! Integration tests: tile-grid labeling is equivalent (up to label
//! renaming) to whole-image AREMSP across tile shapes, synthetic
//! generators and thread counts, while never holding more than one tile
//! row plus the carry row — and the spill-to-disk sink reconstructs the
//! exact partition from its tiles + sidecar merge table.

use proptest::prelude::*;

use ccl_core::seq::aremsp;
use ccl_core::verify::labelings_equivalent;
use ccl_datasets::synth::blobs::{blob_field, BlobParams};
use ccl_datasets::synth::noise::bernoulli;
use ccl_datasets::synth::stream::bernoulli_stream;
use ccl_datasets::synth::{family_image, FAMILIES};
use ccl_image::BinaryImage;
use ccl_stream::{ComponentRecord, CountComponents};
use ccl_tiles::{
    analyze_tiles, label_tiles, read_spilled_label_image, temp_spill_dir, CollectTiles, GridSource,
    SpillFormat, SpillManifest, SpillSink, TileGridConfig, TileGridStats, TileSink, TileSource,
};

/// Per-component features keyed by the raster-first anchor, including the
/// streamed perimeter and hole count; the whole-image side recomputes
/// everything brute force so the comparison is an independent oracle.
type Features = Vec<(
    (usize, usize),
    u64,
    (usize, usize, usize, usize),
    (f64, f64),
    u64,
    u64,
)>;

fn whole_image_features(img: &BinaryImage) -> Features {
    let labels = aremsp(img);
    let n = labels.num_components() as usize;
    let w = img.width();
    let mut area = vec![0u64; n + 1];
    let mut bbox = vec![(usize::MAX, usize::MAX, 0usize, 0usize); n + 1];
    let mut sums = vec![(0f64, 0f64); n + 1];
    let mut anchor = vec![(usize::MAX, usize::MAX); n + 1];
    let mut perimeter = vec![0u64; n + 1];
    for r in 0..img.height() {
        for c in 0..w {
            let l = labels.get(r, c) as usize;
            if l == 0 {
                continue;
            }
            area[l] += 1;
            let b = &mut bbox[l];
            b.0 = b.0.min(r);
            b.1 = b.1.min(c);
            b.2 = b.2.max(r);
            b.3 = b.3.max(c);
            sums[l].0 += r as f64;
            sums[l].1 += c as f64;
            if anchor[l] == (usize::MAX, usize::MAX) {
                anchor[l] = (r, c);
            }
            perimeter[l] += [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)]
                .iter()
                .filter(|&&(dr, dc)| img.get_or_bg(r as isize + dr, c as isize + dc) == 0)
                .count() as u64;
        }
    }
    // independent hole oracle: one-pass V − E + F census per component
    let holes = ccl_core::analysis::count_holes_per_label(&labels);
    let mut out: Features = (1..=n)
        .map(|l| {
            (
                anchor[l],
                area[l],
                bbox[l],
                (sums[l].0 / area[l] as f64, sums[l].1 / area[l] as f64),
                perimeter[l],
                holes[l - 1],
            )
        })
        .collect();
    out.sort_unstable_by_key(|f| f.0);
    out
}

fn record_features(records: &[ComponentRecord]) -> Features {
    let mut out: Features = records
        .iter()
        .map(|r| (r.anchor, r.area, r.bbox, r.centroid, r.perimeter, r.holes))
        .collect();
    out.sort_unstable_by_key(|f| f.0);
    out
}

/// The order contract of grid records: ids strictly increase with anchor
/// raster order, and records come out ordered by (index of the tile row
/// containing pixel row `max_r + 1`, id) — the tile row whose merge
/// closes the component — with the components touching the last image
/// row last, emitted by `finish`.
fn assert_id_and_emission_order(records: &[ComponentRecord], th: usize, height: usize) {
    let mut by_anchor: Vec<_> = records.iter().map(|r| (r.anchor, r.id)).collect();
    by_anchor.sort_unstable();
    assert!(
        by_anchor.windows(2).all(|p| p[0].1 < p[1].1),
        "ids do not follow anchor order"
    );
    let closing = |r: &ComponentRecord| {
        let next = r.bbox.2 + 1;
        let row_idx = if next == height {
            usize::MAX
        } else {
            next / th
        };
        (row_idx, r.id)
    };
    assert!(
        records.windows(2).all(|p| closing(&p[0]) < closing(&p[1])),
        "records not in (closing tile row, id) order"
    );
}

fn tiled_features(img: &BinaryImage, tw: usize, th: usize, cfg: TileGridConfig) -> Features {
    let mut src = GridSource::from_image(img, tw, th);
    let (records, stats) = analyze_tiles(&mut src, cfg).unwrap();
    assert_eq!(stats.components as usize, records.len());
    assert!(stats.peak_resident_rows <= 2 * th);
    assert_id_and_emission_order(&records, th, img.height());
    record_features(&records)
}

/// The residency a pipelined run must report for an image `height` rows
/// tall cut into tile rows of `unit_rows`: the tallest pair of consecutive
/// tile rows plus the carry row, or the lone tile row when there is only one.
fn pipelined_peak(height: usize, unit_rows: usize) -> usize {
    if height > unit_rows {
        height.min(2 * unit_rows) + 1
    } else {
        height
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tentpole acceptance: tile-grid analysis (count / area / bbox /
    /// centroid / perimeter / holes) equals whole-image AREMSP +
    /// brute-force analysis, in the grid's id and emission order, across
    /// tile shapes 1×1..=W×H and all generators.
    #[test]
    fn grid_analysis_matches_whole_image(
        gen in 0usize..FAMILIES,
        w in 1usize..=18,
        h in 1usize..=18,
        tw in 1usize..=19,
        th in 1usize..=19,
        seed in 0u64..1000,
    ) {
        let img = family_image(gen, w, h, seed);
        let expected = whole_image_features(&img);
        let got = tiled_features(&img, tw, th, TileGridConfig::default());
        prop_assert_eq!(got, expected, "generator {} tiles {}x{}", gen, tw, th);
    }

    /// The in-row PAREMSP mode is output-identical to the sequential
    /// mode, for every thread count.
    #[test]
    fn parallel_mode_matches_sequential(
        gen in 0usize..FAMILIES,
        w in 1usize..=16,
        h in 1usize..=16,
        tw in 1usize..=9,
        th in 1usize..=9,
        threads in 2usize..=8,
        seed in 0u64..1000,
    ) {
        let img = family_image(gen, w, h, seed);
        let seq = tiled_features(&img, tw, th, TileGridConfig::sequential());
        let par = tiled_features(&img, tw, th, TileGridConfig::parallel(threads));
        prop_assert_eq!(par, seq, "generator {} threads {}", gen, threads);
    }

    /// The one driver in every mode — pipelined or not, tile sink present
    /// or absent, 1–8 threads — emits exactly the records and stats of
    /// the plain synchronous sequential run. Only a pipelined run's
    /// residency differs: two tile rows + the carry row instead of one.
    /// Labeled tiles reconcile into the exact whole-image partition.
    #[test]
    fn driver_modes_agree(
        gen in 0usize..FAMILIES,
        w in 1usize..=16,
        h in 1usize..=16,
        tw in 1usize..=9,
        th in 1usize..=9,
        threads in 1usize..=8,
        pipelined in proptest::bool::ANY,
        with_tiles in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let img = family_image(gen, w, h, seed);
        let (expected, expected_stats) =
            analyze_tiles(&mut GridSource::from_image(&img, tw, th), TileGridConfig::default())
                .unwrap();

        let mut records: Vec<ComponentRecord> = Vec::new();
        let mut collected = CollectTiles::default();
        let tiles = with_tiles.then_some(&mut collected as &mut dyn TileSink);
        let cfg = TileGridConfig { threads, pipelined };
        let mut src = GridSource::from_image(&img, tw, th);
        let stats = label_tiles(&mut src, cfg, &mut records, tiles).unwrap();
        prop_assert_eq!(&records, &expected, "generator {} tiles {}x{} {:?}", gen, tw, th, cfg);
        let row_rows = th.min(img.height());
        if pipelined {
            prop_assert!(stats.peak_resident_rows <= 2 * row_rows + 1);
            prop_assert_eq!(stats.peak_resident_rows, pipelined_peak(img.height(), th));
        } else {
            prop_assert!(stats.peak_resident_rows <= row_rows + 1);
        }
        let peak_resident_rows = expected_stats.peak_resident_rows;
        prop_assert_eq!(TileGridStats { peak_resident_rows, ..stats }, expected_stats);
        if with_tiles {
            let li = collected.into_label_image();
            let reference = aremsp(&img);
            prop_assert_eq!(li.num_components(), reference.num_components());
            prop_assert!(labelings_equivalent(&li, &reference));
        }
    }
}

/// Runs the grid driver with a [`SpillSink`] writing `format` to `dir`,
/// then closes the spill.
fn spill<S: TileSource + Send>(
    src: &mut S,
    cfg: TileGridConfig,
    dir: &std::path::Path,
    format: SpillFormat,
) -> (SpillManifest, TileGridStats) {
    let mut sink = SpillSink::create(dir, format).unwrap();
    let stats = label_tiles(src, cfg, &mut CountComponents::default(), Some(&mut sink)).unwrap();
    (sink.close().unwrap(), stats)
}

/// Spill round-trip at moderate scale, both formats: the spilled tiles +
/// sidecar merge table reconstruct the exact partition.
#[test]
fn spilled_tiles_reconstruct_exact_partition() {
    let img = blob_field(
        120,
        90,
        BlobParams {
            coverage: 0.35,
            min_radius: 1,
            max_radius: 5,
        },
        21,
    );
    let reference = aremsp(&img);
    for (format, tag) in [(SpillFormat::RawU32, "raw"), (SpillFormat::Pgm16, "pgm")] {
        let dir = temp_spill_dir(tag);
        let mut src = GridSource::from_image(&img, 32, 16);
        let (manifest, stats) = spill(&mut src, TileGridConfig::default(), &dir, format);
        assert_eq!(manifest.width, 120);
        assert_eq!(manifest.rows, 90);
        assert_eq!(stats.components, reference.num_components() as u64);
        let li = read_spilled_label_image(&dir).unwrap();
        assert!(labelings_equivalent(&li, &reference), "{tag}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Acceptance-criteria shape at CI-friendly scale: a generator-fed grid,
/// never materialized on input, spilled on output, reconstructing the
/// exact whole-image partition with ≤ 2 tile rows resident.
#[test]
fn streamed_grid_spills_and_reconstructs() {
    let (w, h, tile) = (256, 2048, 64);
    let dir = temp_spill_dir("it_streamed");
    let source = bernoulli_stream(w, h, 0.5, 99);
    let mut grid = GridSource::new(source, tile, tile);
    let (manifest, stats) = spill(
        &mut grid,
        TileGridConfig::default(),
        &dir,
        SpillFormat::RawU32,
    );
    assert_eq!(stats.rows, h);
    assert!(stats.peak_resident_rows <= 2 * tile);
    assert_eq!(manifest.tiles.len(), (w / tile) * (h / tile));

    let img = bernoulli(w, h, 0.5, 99);
    let reference = aremsp(&img);
    assert_eq!(stats.components, reference.num_components() as u64);
    let li = read_spilled_label_image(&dir).unwrap();
    assert!(labelings_equivalent(&li, &reference));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The full acceptance run: a 12,288 × 8,192 grid (100.7 Mpixel) streamed
/// from a generator in 512×512 tiles — at most 2 tile rows (1,025 pixel
/// rows) resident — while the spill sink writes every labeled tile to
/// disk; the spilled tiles + sidecar merge table then reconstruct the
/// exact whole-image partition. A second pass runs the **pipelined**
/// executor (row *k + 1*'s scans overlapping row *k*'s merge + spill) and
/// must produce the identical spill while holding at most two tile rows
/// plus the carry row. Ignored by default (minutes in debug builds); run
/// with `cargo test --release -p ccl-tiles -- --ignored`.
#[test]
#[ignore = "100-Mpixel acceptance run; use cargo test --release -- --ignored"]
fn hundred_megapixel_grid_bounded_memory_and_spill() {
    let (w, h, tile) = (12_288usize, 8_192usize, 512usize);
    assert!(w * h >= 100_000_000, "acceptance demands >= 100 Mpixel");
    let dir = temp_spill_dir("it_gigascale");

    let source = bernoulli_stream(w, h, 0.5, 4242);
    let mut grid = GridSource::new(source, tile, tile);
    let (manifest, stats) = spill(
        &mut grid,
        TileGridConfig::default(),
        &dir,
        SpillFormat::RawU32,
    );
    assert_eq!(stats.rows, h);
    assert_eq!(stats.tiles, (w / tile) * (h / tile));
    assert!(
        stats.peak_resident_rows <= 2 * tile,
        "resident rows exceeded two tile rows"
    );
    assert_eq!(stats.peak_resident_rows, tile + 1);
    assert_eq!(manifest.tiles.len(), stats.tiles);

    let img = bernoulli(w, h, 0.5, 4242);
    let reference = aremsp(&img);
    assert_eq!(stats.components, reference.num_components() as u64);
    let li = read_spilled_label_image(&dir).unwrap();
    assert!(labelings_equivalent(&li, &reference));
    std::fs::remove_dir_all(&dir).unwrap();

    // The same run through the pipelined executor: identical output, and
    // the residency bound still holds — two tile rows (row k's labels
    // under merge/spill + row k+1 under scan) plus the carry row.
    let dir = temp_spill_dir("it_gigascale_pipelined");
    let source = bernoulli_stream(w, h, 0.5, 4242);
    let mut grid = GridSource::new(source, tile, tile);
    let pipelined = TileGridConfig {
        pipelined: true,
        ..TileGridConfig::default()
    };
    let (manifest, stats) = spill(&mut grid, pipelined, &dir, SpillFormat::RawU32);
    assert_eq!(stats.rows, h);
    assert!(
        stats.peak_resident_rows <= 2 * tile + 1,
        "pipelined resident rows exceeded two tile rows + carry"
    );
    assert_eq!(stats.peak_resident_rows, 2 * tile + 1);
    assert_eq!(stats.components, reference.num_components() as u64);
    assert_eq!(manifest.tiles.len(), stats.tiles);
    let li = read_spilled_label_image(&dir).unwrap();
    assert!(labelings_equivalent(&li, &reference));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Netpbm end to end: write a PGM, window-read it in tiles, label, and
/// match the whole-image pipeline (decode + im2bw + AREMSP).
#[test]
fn netpbm_window_reader_end_to_end() {
    let gray = ccl_image::GrayImage::from_fn(96, 70, |r, c| ((r * 13 + c * 7) % 256) as u8);
    let bytes = ccl_image::io::pgm::write_binary(&gray);
    let img = ccl_image::threshold::im2bw(&gray, 0.5);

    let mut src = GridSource::pgm(bytes.as_slice(), 0.5, 24, 16).unwrap();
    let (records, stats) = analyze_tiles(&mut src, TileGridConfig::default()).unwrap();
    assert_eq!(stats.rows, 70);
    assert!(stats.peak_resident_rows <= 17);
    assert_eq!(record_features(&records), whole_image_features(&img));
}
