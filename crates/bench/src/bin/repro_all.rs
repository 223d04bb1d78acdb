//! Runs the full reproduction sweep (Tables II–IV, Figures 4–5) plus the
//! out-of-core demo in one process, and writes JSON results under
//! `results/` — including the trajectory snapshots the repo tracks across
//! commits: `BENCH_paremsp.json` (PAREMSP phase-timed thread sweep),
//! `BENCH_stream.json` (strip and tile-row out-of-core throughput, modes
//! and spill, written by the `stream_demo` child) and the append-only
//! `BENCH_HISTORY.jsonl` line log behind both.
//!
//! ```text
//! cargo run --release -p ccl-bench --bin repro_all [--scale F] [--reps N]
//! ```

use std::process::Command;

use ccl_bench::{paremsp_phase_ms_best_of, BinArgs, PhaseMsBest};
use ccl_core::par::ParemspConfig;
use ccl_datasets::report::write_json;
use ccl_datasets::suite::nlcd_image;
use serde::Serialize;

const USAGE: &str =
    "repro_all: run table2, table4, fig4, fig5 and the out-of-core stream_demo with shared settings
  --scale F    NLCD size factor vs Table III (default 0.05)
  --reps N     repetitions per timing cell (default 3)";

/// One thread count of the `BENCH_paremsp.json` snapshot.
#[derive(Serialize)]
struct ParemspPoint {
    threads: usize,
    /// Best-of-reps wall milliseconds, per phase and combined.
    phases_ms: PhaseMsBest,
    speedup_vs_1: f64,
}

#[derive(Serialize)]
struct ParemspBench {
    image: String,
    width: usize,
    height: usize,
    megapixels: f64,
    scale: f64,
    reps: usize,
    points: Vec<ParemspPoint>,
}

/// Phase-timed PAREMSP thread sweep on one NLCD-class image — the perf
/// snapshot tracked commit to commit.
fn paremsp_snapshot(scale: f64, reps: usize) -> ParemspBench {
    let img = nlcd_image(3, scale);
    let (w, h) = (img.image.width(), img.image.height());
    let mut points = Vec::new();
    let mut base_total = f64::NAN;
    for threads in [1usize, 2, 4, 8, 16, 24] {
        let cfg = ParemspConfig::with_threads(threads);
        let phases_ms = paremsp_phase_ms_best_of(&img.image, &cfg, reps);
        if threads == 1 {
            base_total = phases_ms.total;
        }
        points.push(ParemspPoint {
            threads,
            phases_ms,
            speedup_vs_1: base_total / phases_ms.total,
        });
    }
    ParemspBench {
        image: img.name,
        width: w,
        height: h,
        megapixels: (w * h) as f64 / 1e6,
        scale,
        reps,
        points,
    }
}

fn main() {
    let args = BinArgs::parse(USAGE);
    std::fs::create_dir_all("results").expect("create results dir");
    let exe = std::env::current_exe().expect("current exe path");
    let bindir = exe.parent().expect("bin dir").to_path_buf();
    let scale = args.scale.to_string();
    let reps = args.reps.to_string();
    for (bin, needs_scale, json) in [
        ("table2", true, "results/table2.json".to_string()),
        ("table4", true, "results/table4.json".to_string()),
        ("fig4", false, "results/fig4.json".to_string()),
        ("fig5", true, "results/fig5.json".to_string()),
        (
            "stream_demo",
            false,
            "results/BENCH_stream.json".to_string(),
        ),
    ] {
        let mut cmd = Command::new(bindir.join(bin));
        cmd.arg("--reps").arg(&reps);
        if needs_scale {
            cmd.arg("--scale").arg(&scale);
        }
        cmd.arg("--json").arg(json);
        println!("==> {bin}");
        let status = cmd.status().unwrap_or_else(|e| {
            eprintln!(
                "failed to launch {bin}: {e}\n(build all bins first: \
                 cargo build --release -p ccl-bench --bins)"
            );
            std::process::exit(1);
        });
        if !status.success() {
            eprintln!("{bin} failed with {status}");
            std::process::exit(1);
        }
    }

    println!("==> BENCH_paremsp.json (phase-timed thread sweep)");
    let snapshot = paremsp_snapshot(args.scale, args.reps);
    write_json("results/BENCH_paremsp.json", &snapshot).expect("write BENCH_paremsp.json");
    ccl_bench::append_history("repro_all/paremsp", &snapshot).expect("append history");
    println!(
        "  {} ({:.1} Mpixel): 1t {:.1} ms -> 24t {:.1} ms",
        snapshot.image,
        snapshot.megapixels,
        snapshot.points.first().map_or(0.0, |p| p.phases_ms.total),
        snapshot.points.last().map_or(0.0, |p| p.phases_ms.total),
    );
    println!("all experiments complete; JSON in results/");
}
