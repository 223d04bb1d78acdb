//! Fully out-of-core labeling with the spill format: a raster streamed from a
//! generator in 64×64 tiles (never resident as a whole), labels spilled
//! to disk as 16-bit PGM tiles, each written once, with a sidecar merge
//! table through which the tiles' raw ids resolve — then the spill is
//! read back and verified against whole-image AREMSP.
//!
//! ```text
//! cargo run --release --example tiles_outofcore
//! ```

use paremsp::datasets::synth::noise::bernoulli;
use paremsp::datasets::synth::stream::bernoulli_stream;
use paremsp::prelude::{
    aremsp, label_tiles, labelings_equivalent, read_spilled_label_image, CountComponents,
    GridSource, SpillFormat, SpillSink, StripConfig,
};

fn main() {
    let (w, h, tile) = (512usize, 1536usize, 64usize);
    let dir = std::env::temp_dir().join(format!("paremsp_tiles_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. Stream the image as tile rows and label it; every labeled tile
    //    spills to disk the moment it is finished.
    let source = bernoulli_stream(w, h, 0.4, 11);
    let mut grid = GridSource::new(source, tile, tile);
    let mut spill = SpillSink::create(&dir, SpillFormat::Pgm16).expect("create spill dir");
    let mut components = CountComponents::default();
    let stats = label_tiles(
        &mut grid,
        StripConfig::default(),
        &mut components,
        Some(&mut spill),
    )
    .expect("spill pipeline");
    let manifest = spill.close().expect("close spill");
    println!(
        "labeled {}x{} ({:.1} Mpixel) in {}x{} tiles: {} components, \
         peak {} resident pixel rows (≤ {} = 2 tile rows)",
        w,
        h,
        (w * h) as f64 / 1e6,
        tile,
        tile,
        stats.components,
        stats.peak_resident_rows,
        2 * tile,
    );
    println!(
        "spilled {} PGM16 tiles + sidecar with {} merge entries to {}",
        manifest.tiles.len(),
        manifest.merges.len(),
        dir.display(),
    );
    assert!(stats.peak_resident_rows <= 2 * tile);

    // 2. Reconstruct the exact partition from the spilled tiles + merge
    //    table and verify against the whole-image reference.
    let spilled = read_spilled_label_image(&dir).expect("read spill back");
    let reference = aremsp(&bernoulli(w, h, 0.4, 11));
    assert_eq!(spilled.num_components(), reference.num_components());
    assert!(labelings_equivalent(&spilled, &reference));
    println!(
        "spill reconstructs the exact whole-image partition ({} components) ✓",
        reference.num_components()
    );

    std::fs::remove_dir_all(&dir).expect("clean up spill dir");
}
