//! Tile-grid demo — 2-D out-of-core labeling throughput and memory.
//!
//! Streams Bernoulli-noise rasters of growing height tile row by tile row
//! through the one labeler, `ccl_stream::StripLabeler` (generator → tile
//! windows → per-tile RemSP stitched along the vertical seams → carry
//! seam merge → on-the-fly analysis) and reports wall time, throughput,
//! component count, the provisional labels the scans allocated and the
//! labeler's peak resident rows — at most one tile row plus the carry
//! row, however tall the image grows. A final column times the fully
//! out-of-core pipeline (labels *spilled to disk* as raw `u32` tiles with
//! a sidecar merge table, committed on close) at the smallest height.
//!
//! Timings include row generation, so the metric is end-to-end pipeline
//! throughput, comparable across commits via the JSON snapshot
//! (`results/BENCH_tiles.json`) and the committed history line
//! (`results/BENCH_HISTORY.jsonl`); a run with `--json` elsewhere writes
//! only its snapshot.
//!
//! ```text
//! cargo run --release -p ccl-bench --bin tiles_demo \
//!     [--reps N] [--threads CSV] [--prefetch] [--pipeline] [--depth N] [--json PATH]
//! ```

use ccl_bench::BinArgs;
use ccl_datasets::harness::time_best_of;
use ccl_datasets::report::Table;
use ccl_datasets::synth::stream::bernoulli_stream;
use ccl_stream::{
    label_tiles, temp_spill_dir, CountComponents, GridSource, PrefetchRows, SpillFormat, SpillSink,
    StreamError, StreamStats, StripConfig, StripLabeler, TileSource,
};
use serde::Serialize;

const USAGE: &str = "tiles_demo: 2-D tile-grid out-of-core labeling throughput vs image height
  --reps N         repetitions per cell (default 3)
  --threads CSV    tile-row scan thread counts (default 1,4)
  --prefetch       generate tile rows on a worker thread (PrefetchRows adapter)
  --pipeline       overlap row k's merge/spill with row k+1's scans
  --depth N        prefetch queue depth (default 2)
  --json PATH      snapshot path (default results/BENCH_tiles.json; only a
                   default-path run appends to results/BENCH_HISTORY.jsonl)";

const WIDTH: usize = 1024;
const TILE: usize = 256;
const HEIGHTS: [usize; 3] = [4_096, 16_384, 65_536];
const DENSITY: f64 = 0.5;

#[derive(Serialize)]
struct TilesRow {
    height: usize,
    megapixels: f64,
    components: u64,
    /// Provisional labels the tile-row scans allocated (carried ids
    /// excluded); the same at every thread count.
    provisional_labels: u64,
    peak_resident_rows: usize,
    /// Peak resident rows as a fraction of the image height — the
    /// bounded-memory signal (quarters every time the height quadruples).
    resident_fraction: f64,
    /// Best-of wall milliseconds per thread count, `threads` order.
    ms: Vec<f64>,
    /// End-to-end throughput (generate + tile + label + analyze) at the
    /// best thread count, megapixels per second.
    best_mpix_per_s: f64,
}

#[derive(Serialize)]
struct TilesBench {
    width: usize,
    tile: usize,
    density: f64,
    threads: Vec<usize>,
    /// Whether tile-row generation ran on a `PrefetchRows` worker
    /// (`--prefetch`).
    prefetch: bool,
    /// Whether the pipelined scan ∥ merge executor ran (`--pipeline`).
    pipeline: bool,
    rows: Vec<TilesRow>,
    /// Wall milliseconds of the fully out-of-core pipeline (label +
    /// spill raw-u32 tiles to disk + commit on close) at the smallest
    /// height, sequential mode.
    spill_ms: f64,
    spill_height: usize,
}

/// Labels one generated grid, prefetched when the flags ask for it.
fn run_labeling(
    args: &BinArgs,
    cfg: StripConfig,
    height: usize,
) -> Result<StreamStats, StreamError> {
    let source = bernoulli_stream(WIDTH, height, DENSITY, height as u64);
    let mut sink = CountComponents::default();
    if args.prefetch {
        let src = PrefetchRows::with_depth(source, TILE, args.depth);
        label_tiles(&mut GridSource::new(src, TILE, TILE), cfg, &mut sink, None)
    } else {
        let mut grid = GridSource::new(source, TILE, TILE);
        label_tiles(&mut grid, cfg, &mut sink, None)
    }
}

/// Provisional labels the tile-row scans allocate on one generated grid:
/// fixed by the tiling alone, so counted once per height, untimed.
fn provisional_labels(height: usize) -> u64 {
    let source = bernoulli_stream(WIDTH, height, DENSITY, height as u64);
    let mut grid = GridSource::new(source, TILE, TILE);
    let mut labeler = StripLabeler::new(WIDTH);
    let mut sink = CountComponents::default();
    while let Some(row) = grid
        .next_tile_row()
        .expect("generator streams are infallible")
    {
        labeler
            .push_tile_row(&row, &mut sink)
            .expect("generated rows have the grid's width");
    }
    labeler.provisional_labels()
}

fn main() {
    let args = BinArgs::parse(USAGE);
    if args.merger.is_some() {
        eprintln!("unknown argument --merger\n{USAGE}");
        std::process::exit(2);
    }
    let threads = args.threads.clone().unwrap_or_else(|| vec![1, 4]);

    let mode = match (args.prefetch, args.pipeline) {
        (true, true) => ", decode∥scan∥merge",
        (true, false) => ", prefetched",
        (false, true) => ", scan∥merge",
        (false, false) => "",
    };
    println!(
        "Tiling {WIDTH}-wide Bernoulli rasters into {TILE}x{TILE} tiles \
         (density {DENSITY}{mode})\n"
    );
    let mut table = Table::new(
        [
            "Height",
            "Mpixel",
            "Components",
            "Labels",
            "Resident rows",
            "Resident",
        ]
        .into_iter()
        .map(str::to_string)
        .chain(threads.iter().map(|t| format!("{t}t [ms]")))
        .chain(std::iter::once("best [Mpx/s]".to_string()))
        .collect::<Vec<_>>(),
    );

    let mut rows = Vec::new();
    for &height in &HEIGHTS {
        let mpix = (WIDTH * height) as f64 / 1e6;
        let mut ms = Vec::new();
        let mut components = 0u64;
        let mut peak = 0usize;
        for &t in &threads {
            let cfg = StripConfig {
                pipelined: args.pipeline,
                ..StripConfig::parallel(t)
            };
            let best = time_best_of(args.reps, || {
                let stats =
                    run_labeling(&args, cfg, height).expect("generator streams are infallible");
                components = stats.components;
                peak = stats.peak_resident_rows;
                stats
            });
            ms.push(best);
        }
        let best_ms = ms.iter().cloned().fold(f64::INFINITY, f64::min);
        let row = TilesRow {
            height,
            megapixels: mpix,
            components,
            provisional_labels: provisional_labels(height),
            peak_resident_rows: peak,
            resident_fraction: peak as f64 / height as f64,
            ms: ms.clone(),
            best_mpix_per_s: mpix / (best_ms / 1e3),
        };
        table.push_row(
            [
                height.to_string(),
                format!("{mpix:.1}"),
                row.components.to_string(),
                row.provisional_labels.to_string(),
                row.peak_resident_rows.to_string(),
                format!("{:.3}%", row.resident_fraction * 100.0),
            ]
            .into_iter()
            .chain(row.ms.iter().map(|m| format!("{m:.1}")))
            .chain(std::iter::once(format!("{:.1}", row.best_mpix_per_s)))
            .collect::<Vec<_>>(),
        );
        rows.push(row);
    }
    println!("{}", table.render());
    if args.pipeline {
        println!(
            "Resident rows stay at {} (two tile rows + carry row) at every \
             height: labeling memory is O(tile row), not O(image).",
            2 * TILE + 1
        );
    } else {
        println!(
            "Resident rows stay at {} (tile row + carry row) at every height: \
             labeling memory is O(tile row), not O(image).",
            TILE + 1
        );
    }

    // The fully out-of-core pipeline: spill labeled tiles to disk and
    // commit the manifest on close (pipelined overlaps the spill writes with
    // the next row's scans when --pipeline is set).
    let spill_height = HEIGHTS[0];
    let spill_dir = temp_spill_dir("demo");
    let spill_ms = time_best_of(args.reps, || {
        let _ = std::fs::remove_dir_all(&spill_dir);
        let source = bernoulli_stream(WIDTH, spill_height, DENSITY, spill_height as u64);
        let mut grid = GridSource::new(source, TILE, TILE);
        let cfg = StripConfig {
            pipelined: args.pipeline,
            ..StripConfig::default()
        };
        let mut spill = SpillSink::create(&spill_dir, SpillFormat::RawU32).expect("spill dir");
        let mut sink = CountComponents::default();
        label_tiles(&mut grid, cfg, &mut sink, Some(&mut spill)).expect("label and spill");
        spill.close().expect("close spill")
    });
    let _ = std::fs::remove_dir_all(&spill_dir);
    let spill_mpix = (WIDTH * spill_height) as f64 / 1e6;
    println!(
        "\nOut-of-core output: label + spill + commit {spill_mpix:.1} Mpixel \
         in {spill_ms:.1} ms ({:.1} Mpx/s incl. disk)",
        spill_mpix / (spill_ms / 1e3)
    );

    let result = TilesBench {
        width: WIDTH,
        tile: TILE,
        density: DENSITY,
        threads,
        prefetch: args.prefetch,
        pipeline: args.pipeline,
        rows,
        spill_ms,
        spill_height,
    };
    ccl_bench::write_snapshot(
        "tiles_demo",
        args.json.as_deref(),
        "results/BENCH_tiles.json",
        &result,
    );
}
