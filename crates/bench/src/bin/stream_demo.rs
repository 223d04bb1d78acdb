//! Out-of-core demo — both engines of the one labeler, strip bands and
//! tile rows, through one routine, `label`.
//!
//! One run prints three tables:
//!
//! * **Height sweep.** Bernoulli-noise rasters of growing height, labeled
//!   per `--threads` count: wall time, throughput, components, the
//!   labeler's peak resident rows (one unit plus the carry row, however
//!   tall the image grows) and, for tile rows, the provisional labels
//!   the scans allocated.
//! * **Execution modes.** The same raster behind a device-paced decoder
//!   (`ccl_stream::PacedRows`: a fixed stall per delivered band or tile
//!   row, so hiding the latency needs no spare core), labeled by both
//!   engines synchronously, prefetched (`PrefetchRows`: decode ∥ label),
//!   pipelined (scan ∥ merge) and both (decode ∥ scan ∥ merge). Every
//!   mode must find the same components.
//! * **Spill.** Each engine's smallest sweep height labeled with its
//!   labels spilled to disk as raw `u32` tiles and committed on close.
//!
//! Timings include row generation, so the metric is end-to-end pipeline
//! throughput, comparable across commits via the JSON snapshot
//! (`results/BENCH_stream.json` by default, which also appends a
//! `results/BENCH_HISTORY.jsonl` line; a run with `--json` elsewhere
//! writes only its snapshot).
//!
//! ```text
//! cargo run --release -p ccl-bench --bin stream_demo \
//!     [--reps N] [--threads CSV] [--json PATH]
//! ```

use std::time::Duration;

use ccl_bench::BinArgs;
use ccl_datasets::harness::time_best_of;
use ccl_datasets::report::Table;
use ccl_datasets::synth::stream::bernoulli_stream;
use ccl_stream::{
    label_stream, label_tiles, temp_spill_dir, CountComponents, GridSource, PacedRows,
    PrefetchRows, RowSource, SpillFormat, SpillSink, StreamStats, StripConfig, StripLabeler,
    TileSink, TileSource,
};
use serde::Serialize;

const USAGE: &str = "stream_demo: out-of-core labeling of strip bands and tile rows (height sweep, execution modes, spill)
  --reps N         repetitions per cell (default 3)
  --threads CSV    height-sweep scan thread counts (default 1,4)
  --json PATH      snapshot path (default results/BENCH_stream.json; only a
                   default-path run appends to results/BENCH_HISTORY.jsonl)";

const WIDTH: usize = 1024;
const DENSITY: f64 = 0.5;

/// The paced raster of the mode table, labeled in 256-row units.
const PACED_WIDTH: usize = 512;
const PACED_HEIGHT: usize = 6144;
const PACED_UNIT: usize = 256;
/// Stall per delivered band or tile row: a 128 KiB band from a ~40 MB/s
/// device, so 24 units → ~72 ms of pure decode latency per run.
const DEVICE_LATENCY: Duration = Duration::from_millis(3);

/// The modes of the mode table: (name, prefetch, pipelined).
const MODES: [(&str, bool, bool); 4] = [
    ("sync", false, false),
    ("decode∥label", true, false),
    ("scan∥merge", false, true),
    ("decode∥scan∥merge", true, true),
];

/// One engine of the labeler: strip bands of `unit` rows, or tile rows of
/// `unit` × `unit` tiles.
#[derive(Clone, Copy)]
struct Engine {
    name: &'static str,
    tiled: bool,
    unit: usize,
    heights: [usize; 3],
}

const ENGINES: [Engine; 2] = [
    Engine {
        name: "strips",
        tiled: false,
        unit: 1024,
        heights: [8_192, 32_768, 131_072],
    },
    Engine {
        name: "tiles",
        tiled: true,
        unit: 256,
        heights: [4_096, 16_384, 65_536],
    },
];

#[derive(Serialize)]
struct SweepRow {
    engine: &'static str,
    height: usize,
    megapixels: f64,
    components: u64,
    /// Provisional labels the tile-row scans allocated (carried ids
    /// excluded; fixed by the tiling alone). `None` for strips, whose
    /// count follows the thread split.
    provisional_labels: Option<u64>,
    peak_resident_rows: usize,
    /// Peak resident rows as a fraction of the image height — the
    /// bounded-memory signal.
    resident_fraction: f64,
    /// Best-of wall milliseconds per thread count, `threads` order.
    ms: Vec<f64>,
    /// End-to-end throughput (generate + label + analyze) at the best
    /// thread count, megapixels per second.
    best_mpix_per_s: f64,
}

#[derive(Serialize)]
struct Mode {
    engine: &'static str,
    name: &'static str,
    ms: f64,
    speedup_vs_sync: f64,
    components: u64,
}

#[derive(Serialize)]
struct SpillRow {
    engine: &'static str,
    height: usize,
    /// Wall milliseconds of label + spill raw-u32 tiles + commit on
    /// close, sequential mode.
    ms: f64,
}

#[derive(Serialize)]
struct StreamBench {
    width: usize,
    density: f64,
    threads: Vec<usize>,
    sweep: Vec<SweepRow>,
    paced_width: usize,
    paced_height: usize,
    paced_unit: usize,
    device_latency_ms: f64,
    modes: Vec<Mode>,
    spill: Vec<SpillRow>,
}

/// Labels `source` with `engine`: behind a `PrefetchRows` worker when
/// `prefetch`, cut into a `GridSource` for tile rows, labels spilled to
/// `spill` when given.
fn label<S: RowSource + Send + 'static>(
    engine: Engine,
    mut source: S,
    cfg: StripConfig,
    prefetch: bool,
    spill: Option<&mut SpillSink>,
) -> StreamStats {
    if prefetch {
        let staged = PrefetchRows::new(source, engine.unit);
        return label(engine, staged, cfg, false, spill);
    }
    let mut sink = CountComponents::default();
    let spill = spill.map(|s| s as &mut dyn TileSink);
    if engine.tiled {
        let mut grid = GridSource::new(source, engine.unit, engine.unit);
        label_tiles(&mut grid, cfg, &mut sink, spill)
    } else {
        label_stream(&mut source, engine.unit, cfg, &mut sink, spill)
    }
    .expect("generated streams label and spill")
}

/// Provisional labels the tile-row scans allocate on one generated grid:
/// fixed by the tiling alone, so counted once per height, untimed.
fn provisional_labels(engine: Engine, height: usize) -> u64 {
    let source = bernoulli_stream(WIDTH, height, DENSITY, height as u64);
    let mut grid = GridSource::new(source, engine.unit, engine.unit);
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
    let threads = args.threads.clone().unwrap_or_else(|| vec![1, 4]);

    println!(
        "Streaming {WIDTH}-wide Bernoulli rasters (density {DENSITY}): strips in {}-row \
         bands, tiles in {1}x{1} tiles\n",
        ENGINES[0].unit, ENGINES[1].unit
    );
    let mut table = Table::new(
        [
            "Engine",
            "Height",
            "Mpixel",
            "Components",
            "Labels",
            "Resident rows",
            "Resident",
        ]
        .map(String::from)
        .into_iter()
        .chain(threads.iter().map(|t| format!("{t}t [ms]")))
        .chain(["best [Mpx/s]".to_string()]),
    );
    let mut sweep = Vec::new();
    for engine in ENGINES {
        for height in engine.heights {
            let mpix = (WIDTH * height) as f64 / 1e6;
            let mut stats = None;
            let ms: Vec<f64> = threads
                .iter()
                .map(|&t| {
                    time_best_of(args.reps, || {
                        let source = bernoulli_stream(WIDTH, height, DENSITY, height as u64);
                        let cfg = StripConfig::parallel(t);
                        stats = Some(label(engine, source, cfg, false, None));
                    })
                })
                .collect();
            let stats = stats.expect("at least one thread count");
            let best_ms = ms.iter().copied().fold(f64::INFINITY, f64::min);
            let row = SweepRow {
                engine: engine.name,
                height,
                megapixels: mpix,
                components: stats.components,
                provisional_labels: engine.tiled.then(|| provisional_labels(engine, height)),
                peak_resident_rows: stats.peak_resident_rows,
                resident_fraction: stats.peak_resident_rows as f64 / height as f64,
                best_mpix_per_s: mpix / (best_ms / 1e3),
                ms,
            };
            table.push_row(
                [
                    engine.name.to_string(),
                    height.to_string(),
                    format!("{mpix:.1}"),
                    row.components.to_string(),
                    row.provisional_labels.map_or("-".into(), |l| l.to_string()),
                    row.peak_resident_rows.to_string(),
                    format!("{:.3}%", row.resident_fraction * 100.0),
                ]
                .into_iter()
                .chain(row.ms.iter().map(|m| format!("{m:.1}")))
                .chain([format!("{:.1}", row.best_mpix_per_s)]),
            );
            sweep.push(row);
        }
    }
    println!("{}", table.render());
    println!(
        "Resident rows stay at one unit + the carry row ({} for strips, {} for tiles) at \
         every height: labeling memory is O(unit), not O(image).\n",
        ENGINES[0].unit + 1,
        ENGINES[1].unit + 1
    );

    let paced_mpix = (PACED_WIDTH * PACED_HEIGHT) as f64 / 1e6;
    println!(
        "{PACED_WIDTH}x{PACED_HEIGHT} Bernoulli raster ({paced_mpix:.1} Mpixel) behind a \
         device-paced decoder ({:.0} ms per {PACED_UNIT}-row unit), prefetch depth 2\n",
        DEVICE_LATENCY.as_secs_f64() * 1e3
    );
    let mut table = Table::new(["Engine", "Mode", "ms", "vs sync", "Mpx/s"]);
    let mut modes: Vec<Mode> = Vec::new();
    for engine in ENGINES.map(|e| Engine {
        unit: PACED_UNIT,
        ..e
    }) {
        let mut sync_ms = None;
        for (name, prefetch, pipelined) in MODES {
            let cfg = StripConfig {
                pipelined,
                ..StripConfig::default()
            };
            let mut components = 0;
            let ms = time_best_of(args.reps, || {
                let source = bernoulli_stream(PACED_WIDTH, PACED_HEIGHT, DENSITY, 77);
                let source = PacedRows::new(source, DEVICE_LATENCY);
                components = label(engine, source, cfg, prefetch, None).components;
            });
            let speedup = *sync_ms.get_or_insert(ms) / ms;
            table.push_row([
                engine.name.to_string(),
                name.to_string(),
                format!("{ms:.1}"),
                format!("{speedup:.2}x"),
                format!("{:.1}", paced_mpix / (ms / 1e3)),
            ]);
            modes.push(Mode {
                engine: engine.name,
                name,
                ms,
                speedup_vs_sync: speedup,
                components,
            });
        }
    }
    let components = modes[0].components;
    assert!(
        modes.iter().all(|m| m.components == components),
        "every mode must find the same components"
    );
    println!("{}", table.render());
    println!(
        "Identical component counts in every mode ({components}); the overlap modes hide \
         the decode latency behind labeling.\n"
    );

    let spill_dir = temp_spill_dir("demo");
    let mut spill = Vec::new();
    for engine in ENGINES {
        let height = engine.heights[0];
        let ms = time_best_of(args.reps, || {
            let _ = std::fs::remove_dir_all(&spill_dir);
            let source = bernoulli_stream(WIDTH, height, DENSITY, height as u64);
            let mut sink = SpillSink::create(&spill_dir, SpillFormat::RawU32).expect("spill dir");
            label(
                engine,
                source,
                StripConfig::default(),
                false,
                Some(&mut sink),
            );
            sink.close().expect("close spill")
        });
        let mpix = (WIDTH * height) as f64 / 1e6;
        println!(
            "Out-of-core output, {}: label + spill + commit {mpix:.1} Mpixel in {ms:.1} ms \
             ({:.1} Mpx/s incl. disk)",
            engine.name,
            mpix / (ms / 1e3)
        );
        spill.push(SpillRow {
            engine: engine.name,
            height,
            ms,
        });
    }
    let _ = std::fs::remove_dir_all(&spill_dir);

    let result = StreamBench {
        width: WIDTH,
        density: DENSITY,
        threads,
        sweep,
        paced_width: PACED_WIDTH,
        paced_height: PACED_HEIGHT,
        paced_unit: PACED_UNIT,
        device_latency_ms: DEVICE_LATENCY.as_secs_f64() * 1e3,
        modes,
        spill,
    };
    ccl_bench::write_snapshot(
        "stream_demo",
        args.json.as_deref(),
        "results/BENCH_stream.json",
        &result,
    );
}
