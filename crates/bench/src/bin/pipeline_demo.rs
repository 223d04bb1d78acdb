//! Pipeline demo — the overlap win on a generation-bound workload.
//!
//! Out-of-core inputs are generation-bound in practice: the next band
//! waits on a disk seek, an object-store GET or a sensor readout before
//! any pixel can be scanned. This demo models that decode latency
//! explicitly with `ccl_stream::PacedRows`, a device-paced wrapper (a
//! fixed stall per delivered band/tile row — hiding *latency* needs no
//! spare core, so the win is measurable on any machine, single-core CI
//! included) and runs the same raster through every execution mode:
//!
//! * rows and tiles alike: synchronous, prefetched (`PrefetchRows`,
//!   under the `GridSource` for tiles: decode ∥ label), the pipelined executor
//!   (scan ∥ merge), and the full three-stage stack of both
//!   (decode ∥ scan ∥ merge);
//!
//! asserting identical component counts throughout and reporting wall
//! time + speedup per mode. The JSON snapshot
//! (`results/BENCH_pipeline.json`) and the committed
//! `results/BENCH_HISTORY.jsonl` line record all eight modes so the
//! overlap win is visible in the perf trajectory. A run with `--json`
//! elsewhere writes only its snapshot.
//!
//! ```text
//! cargo run --release -p ccl-bench --bin pipeline_demo \
//!     [--reps N] [--depth N] [--json PATH]
//! ```

use std::time::Duration;

use ccl_bench::BinArgs;
use ccl_datasets::harness::time_best_of;
use ccl_datasets::report::Table;
use ccl_datasets::synth::stream::bernoulli_stream;
use ccl_stream::{
    label_stream, label_tiles, CountComponents, GridSource, PacedRows, PrefetchRows, StripConfig,
};
use serde::Serialize;

const USAGE: &str = "pipeline_demo: decode/scan/merge overlap on a generation-bound workload
  --reps N         repetitions per mode (default 3)
  --depth N        prefetch queue depth (default 2)
  --json PATH      snapshot path (default results/BENCH_pipeline.json; only a
                   default-path run appends to results/BENCH_HISTORY.jsonl)";

const WIDTH: usize = 512;
const HEIGHT: usize = 6144;
const BAND: usize = 256;
const TILE: usize = 256;
/// Stall per delivered band/tile row: a 128 KiB band from a ~40 MB/s
/// device. 24 bands → ~72 ms of pure decode latency per run.
const DEVICE_LATENCY: Duration = Duration::from_millis(3);

fn source() -> PacedRows<ccl_datasets::synth::stream::RowStream> {
    PacedRows::new(bernoulli_stream(WIDTH, HEIGHT, 0.5, 77), DEVICE_LATENCY)
}

#[derive(Serialize)]
struct Mode {
    name: String,
    ms: f64,
    speedup_vs_sync: f64,
    components: u64,
}

#[derive(Serialize)]
struct PipelineBench {
    width: usize,
    height: usize,
    band: usize,
    tile: usize,
    depth: usize,
    device_latency_ms: f64,
    rows_modes: Vec<Mode>,
    tiles_modes: Vec<Mode>,
}

fn main() {
    let args = BinArgs::parse(USAGE);
    let mpix = (WIDTH * HEIGHT) as f64 / 1e6;
    println!(
        "{WIDTH}x{HEIGHT} Bernoulli raster ({mpix:.1} Mpixel) behind a device-paced \
         decoder ({:.0} ms per {BAND}-row band), prefetch depth {}\n",
        DEVICE_LATENCY.as_secs_f64() * 1e3,
        args.depth
    );

    let mut table = Table::new(
        ["Mode", "ms", "vs sync", "Mpx/s"]
            .into_iter()
            .map(str::to_string)
            .collect::<Vec<_>>(),
    );
    let mut measure = |name: &str, sync_ms: Option<f64>, f: &mut dyn FnMut() -> u64| {
        let mut components = 0;
        let ms = time_best_of(args.reps, || components = f());
        let speedup = sync_ms.map_or(1.0, |s| s / ms);
        table.push_row(vec![
            name.to_string(),
            format!("{ms:.1}"),
            format!("{speedup:.2}x"),
            format!("{:.1}", mpix / (ms / 1e3)),
        ]);
        Mode {
            name: name.to_string(),
            ms,
            speedup_vs_sync: speedup,
            components,
        }
    };

    // Each engine runs the same four modes: (prefetch, pipelined).
    const MODES: [(&str, bool, bool); 4] = [
        ("sync", false, false),
        ("decode∥label", true, false),
        ("scan∥merge", false, true),
        ("decode∥scan∥merge", true, true),
    ];
    let mut rows_modes: Vec<Mode> = Vec::new();
    for (name, prefetch, pipelined) in MODES {
        let cfg = StripConfig {
            pipelined,
            ..StripConfig::default()
        };
        let sync_ms = rows_modes.first().map(|m| m.ms);
        rows_modes.push(measure(&format!("rows {name}"), sync_ms, &mut || {
            let mut sink = CountComponents::default();
            if prefetch {
                let mut src = PrefetchRows::with_depth(source(), BAND, args.depth);
                label_stream(&mut src, BAND, cfg, &mut sink, None)
            } else {
                label_stream(&mut source(), BAND, cfg, &mut sink, None)
            }
            .expect("infallible");
            sink.count
        }));
    }
    let mut tiles_modes: Vec<Mode> = Vec::new();
    for (name, prefetch, pipelined) in MODES {
        let cfg = StripConfig {
            pipelined,
            ..StripConfig::default()
        };
        let sync_ms = tiles_modes.first().map(|m| m.ms);
        tiles_modes.push(measure(&format!("tiles {name}"), sync_ms, &mut || {
            let mut sink = CountComponents::default();
            if prefetch {
                let src = PrefetchRows::with_depth(source(), TILE, args.depth);
                label_tiles(&mut GridSource::new(src, TILE, TILE), cfg, &mut sink, None)
            } else {
                let mut grid = GridSource::new(source(), TILE, TILE);
                label_tiles(&mut grid, cfg, &mut sink, None)
            }
            .expect("infallible");
            sink.count
        }));
    }
    let components = rows_modes[0].components;
    assert!(
        rows_modes
            .iter()
            .chain(&tiles_modes)
            .all(|m| m.components == components),
        "every mode must find the same components"
    );

    println!("{}", table.render());
    println!(
        "Identical component counts in every mode ({components}); the overlap \
         modes hide the decode latency behind labeling."
    );

    let result = PipelineBench {
        width: WIDTH,
        height: HEIGHT,
        band: BAND,
        tile: TILE,
        depth: args.depth,
        device_latency_ms: DEVICE_LATENCY.as_secs_f64() * 1e3,
        rows_modes,
        tiles_modes,
    };
    ccl_bench::write_snapshot(
        "pipeline_demo",
        args.json.as_deref(),
        "results/BENCH_pipeline.json",
        &result,
    );
}
