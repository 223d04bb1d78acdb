//! Streaming demo — flat labeler memory vs image height.
//!
//! Streams Bernoulli-noise rasters of growing height (fixed width, fixed
//! band height) through the `ccl-stream` strip labeler and reports wall
//! time, throughput, component count and the labeler's peak resident
//! rows: the resident fraction shrinks as the image grows while
//! throughput stays flat — the bounded-memory claim, measured.
//!
//! Timings include row generation (the stream is produced on the fly and
//! never materialized), so the metric is end-to-end pipeline throughput —
//! stable across runs and comparable across commits via the JSON
//! snapshot (`results/BENCH_stream.json` by default, which also appends
//! a `results/BENCH_HISTORY.jsonl` line; a run with `--json` elsewhere
//! writes only its snapshot).
//!
//! ```text
//! cargo run --release -p ccl-bench --bin stream_demo \
//!     [--reps N] [--threads CSV] [--prefetch] [--pipeline] [--depth N] [--json PATH]
//! ```

use ccl_bench::BinArgs;
use ccl_datasets::harness::time_best_of;
use ccl_datasets::report::Table;
use ccl_datasets::synth::stream::bernoulli_stream;
use ccl_stream::{label_stream, CountComponents, PrefetchRows, StripConfig};
use serde::Serialize;

const USAGE: &str = "stream_demo: bounded-memory streaming throughput vs image height
  --reps N         repetitions per cell (default 3)
  --threads CSV    scan thread counts, one column tile per thread (default 1,4)
  --prefetch       generate bands on a worker thread (PrefetchRows adapter)
  --pipeline       overlap band k's carry seam/fold with band k+1's scan
  --depth N        prefetch queue depth (default 2)
  --json PATH      snapshot path (default results/BENCH_stream.json; only a
                   default-path run appends to results/BENCH_HISTORY.jsonl)";

const WIDTH: usize = 1024;
const BAND_ROWS: usize = 1024;
const HEIGHTS: [usize; 3] = [8_192, 32_768, 131_072];
const DENSITY: f64 = 0.5;

#[derive(Serialize)]
struct StreamRow {
    height: usize,
    megapixels: f64,
    components: u64,
    peak_resident_rows: usize,
    /// Peak resident rows as a fraction of the image height — the
    /// bounded-memory signal (halves every time the height doubles).
    resident_fraction: f64,
    /// Best-of wall milliseconds per thread count, `threads` order.
    ms: Vec<f64>,
    /// End-to-end throughput (generate + label + analyze) at the best
    /// thread count, megapixels per second.
    best_mpix_per_s: f64,
}

#[derive(Serialize)]
struct StreamBench {
    width: usize,
    band_rows: usize,
    density: f64,
    threads: Vec<usize>,
    /// Whether band generation ran on a `PrefetchRows` worker
    /// (`--prefetch`), overlapping generation with labeling.
    prefetch: bool,
    /// Whether the pipelined scan ∥ merge strip executor ran
    /// (`--pipeline`).
    pipeline: bool,
    rows: Vec<StreamRow>,
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
        "Streaming {WIDTH}-wide Bernoulli rasters in {BAND_ROWS}-row bands \
         (density {DENSITY}{mode})\n"
    );
    let mut table = Table::new(
        [
            "Height",
            "Mpixel",
            "Components",
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
                let mut source = bernoulli_stream(WIDTH, height, DENSITY, height as u64);
                let mut sink = CountComponents::default();
                let stats = if args.prefetch {
                    let mut staged = PrefetchRows::with_depth(source, BAND_ROWS, args.depth);
                    label_stream(&mut staged, BAND_ROWS, cfg, &mut sink, None)
                } else {
                    label_stream(&mut source, BAND_ROWS, cfg, &mut sink, None)
                }
                .expect("generator streams are infallible");
                components = stats.components;
                peak = stats.peak_resident_rows;
                stats
            });
            ms.push(best);
        }
        let best_ms = ms.iter().cloned().fold(f64::INFINITY, f64::min);
        let row = StreamRow {
            height,
            megapixels: mpix,
            components,
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
            "Resident rows stay at {} (two bands + carry row) at every \
             height: labeling memory is O(band), not O(image).",
            2 * BAND_ROWS + 1
        );
    } else {
        println!(
            "Resident rows stay at {} (band + carry row) at every height: \
             labeling memory is O(band), not O(image).",
            BAND_ROWS + 1
        );
    }

    let result = StreamBench {
        width: WIDTH,
        band_rows: BAND_ROWS,
        density: DENSITY,
        threads,
        prefetch: args.prefetch,
        pipeline: args.pipeline,
        rows,
    };
    ccl_bench::write_snapshot(
        "stream_demo",
        args.json.as_deref(),
        "results/BENCH_stream.json",
        &result,
    );
}
