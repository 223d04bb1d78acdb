//! The `ccl-pipeline` execution layer end to end: a raster behind a
//! device-paced decoder (a fixed stall per band, like a disk seek or
//! sensor readout — the common generation-bound case) run three ways:
//! synchronous, with band prefetch (decode ∥ label), and as the full
//! three-stage pipeline (decode ∥ scan ∥ merge) — with identical
//! analysis output and the wall-time win printed. Hiding device latency
//! needs no spare core, so the win shows on any machine.
//!
//! ```text
//! cargo run --release --example pipeline_prefetch
//! ```

use std::time::{Duration, Instant};

use paremsp::datasets::synth::stream::bernoulli_stream;
use paremsp::pipeline::PacedRows;
use paremsp::prelude::{
    analyze_stream, analyze_tiles, GridSource, PrefetchRows, StripConfig, TileGridConfig,
};

const W: usize = 512;
const H: usize = 4096;
const BAND: usize = 256;
const TILE: usize = 256;
/// One simulated device stall per delivered band.
const LATENCY: Duration = Duration::from_millis(4);

fn source() -> PacedRows<paremsp::datasets::synth::stream::RowStream> {
    PacedRows::new(bernoulli_stream(W, H, 0.5, 42), LATENCY)
}

fn main() {
    let mpix = (W * H) as f64 / 1e6;
    println!(
        "{W}x{H} raster ({mpix:.1} Mpixel) behind a {:.0} ms/band decoder: \
         a generation-bound workload\n",
        LATENCY.as_secs_f64() * 1e3
    );

    // 1. Row bands, synchronous: the labeler idles through every device
    //    stall, the device idles through every labeled band.
    let t = Instant::now();
    let mut src = source();
    let (sync_records, sync_stats) =
        analyze_stream(&mut src, BAND, StripConfig::default()).expect("synchronous stream");
    let sync_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "rows, synchronous:        {sync_ms:7.1} ms  ({} components)",
        sync_stats.components
    );

    // 2. Row bands behind a prefetcher: the next band decodes on a
    //    worker thread while the current one labels.
    let t = Instant::now();
    let mut prefetched = PrefetchRows::new(source(), BAND);
    let (pf_records, pf_stats) =
        analyze_stream(&mut prefetched, BAND, StripConfig::default()).expect("prefetched stream");
    let pf_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "rows, decode∥label:       {pf_ms:7.1} ms  ({:.2}x)",
        sync_ms / pf_ms
    );
    assert_eq!(pf_records, sync_records, "prefetching changes nothing");
    assert_eq!(pf_stats.components, sync_stats.components);

    // 3. Tile grid, synchronous vs the full three-stage pipeline:
    //    decode (worker) ∥ scan tiles (worker) ∥ merge seams (main). A
    //    tile row is a windowed band, so the band prefetcher sits under
    //    the grid.
    let t = Instant::now();
    let mut grid = GridSource::new(source(), TILE, TILE);
    let (tiles_sync_records, _) =
        analyze_tiles(&mut grid, TileGridConfig::default()).expect("synchronous tiles");
    let tiles_sync_ms = t.elapsed().as_secs_f64() * 1e3;
    println!("tiles, synchronous:       {tiles_sync_ms:7.1} ms");

    let t = Instant::now();
    let mut staged = GridSource::new(PrefetchRows::new(source(), TILE), TILE, TILE);
    let pipelined = TileGridConfig {
        pipelined: true,
        ..TileGridConfig::default()
    };
    let (tiles_pipe_records, tiles_pipe_stats) =
        analyze_tiles(&mut staged, pipelined).expect("pipelined tiles");
    let tiles_pipe_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "tiles, decode∥scan∥merge: {tiles_pipe_ms:7.1} ms  ({:.2}x)",
        tiles_sync_ms / tiles_pipe_ms
    );
    assert_eq!(
        tiles_pipe_records, tiles_sync_records,
        "pipelining changes nothing"
    );
    println!(
        "\npipelined residency: {} pixel rows (≤ {} = 2 tile rows + carry) ✓",
        tiles_pipe_stats.peak_resident_rows,
        2 * TILE + 1
    );
    assert!(tiles_pipe_stats.peak_resident_rows <= 2 * TILE + 1);
}
