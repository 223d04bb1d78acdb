//! The repository benchmark: end-to-end and per-layer metrics of the
//! PAREMSP workspace on four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload strip-noise --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the root of the repository. Each run generates its inputs
//! from `--seed` during set-up (repeated; `setup_s` is the median of
//! [`harness::SETUP_REPS`] replicates), then runs timed passes over them
//! for `--seconds` of wall time. Every pass is checked against
//! whole-image `aremsp` right after its timed interval. With `--trace 0`
//! the run prints the end-to-end metrics; with `--trace 1` it spends half
//! the time untraced and half traced, prints the per-layer metrics, and
//! writes the recorded spans to `.perfbench_out/`.
//!
//! On a shared virtual machine the hypervisor's steal time moves wall
//! times far more than run-to-run program variation does, so every pass
//! and set-up replicate records the host's steal share (`/proc/stat`),
//! timing metrics come from the least disturbed passes, and a run goes on
//! for up to [`harness::EXTEND`] times `--seconds` while too few
//! undisturbed items were measured (see [`harness::timing_passes`]).
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the host, the code and the workload's sizes. A human-readable
//! table goes to standard error. The exit code is non-zero when any
//! output disagreed with the reference.

mod check;
mod harness;
mod stats;
mod sys;
mod trace;
mod workloads;
mod wrap;

use std::path::Path;
use std::process::ExitCode;

use harness::{json_f64, run, Metric, Outcome};
use workloads::{Frames, Strip, TilesSpill, SPILL_ROOT};

/// Every workload; why each was chosen is recorded in `BENCHMARK.json`.
const WORKLOADS: &[&str] = &[
    "strip-noise",
    "strip-landcover",
    "tiles-spill",
    "frames-paremsp",
];

/// Per-layer metrics, printed by every traced run (0 where the workload
/// does not exercise the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_ms", "ms"),
    ("image.decode_ms", "ms"),
    ("image.decode_mpx_s", "Mpx/s"),
    ("pipeline.consumer_wait_ms", "ms"),
    ("pipeline.decode_hidden_frac", "frac"),
    ("stream.push_band_ms", "ms"),
    ("stream.finish_ms", "ms"),
    ("stream.emit_ms", "ms"),
    ("stream.records", "count"),
    ("stream.bands", "count"),
    ("stream.open_components_peak", "count"),
    ("stream.peak_resident_rows", "rows"),
    ("tiles.push_tile_row_ms", "ms"),
    ("tiles.emit_ms", "ms"),
    ("tiles.merge_events", "count"),
    ("tiles.tiles", "count"),
    ("tiles.open_components_peak", "count"),
    ("tiles.peak_resident_rows", "rows"),
    ("tiles.spill_write_ms", "ms"),
    ("tiles.spill_bytes", "bytes"),
    ("tiles.spill_close_ms", "ms"),
    ("core.scan_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.flatten_ms", "ms"),
    ("core.relabel_ms", "ms"),
    ("core.aremsp_baseline_ms", "ms"),
    ("core.paremsp_over_aremsp", "x"),
    ("trace.overhead_frac", "frac"),
];

/// Layers the benchmark cannot reach from outside the engines.
const UNMEASURED: &str = "[\"ccl-unionfind (internal to every labeler)\",\"internal stages of the *_pipelined executors\"]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "strip-noise" => run(|t| Strip::noise(seed, t), seconds, trace),
        "strip-landcover" => run(|t| Strip::landcover(seed, t), seconds, trace),
        "tiles-spill" => run(|t| TilesSpill::setup(seed, t), seconds, trace),
        "frames-paremsp" => run(|t| Frames::setup(seed, t), seconds, trace),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Completes a traced run's metrics with every per-layer name, in the
/// order of [`PER_LAYER`]; returns the names the workload left at 0.
fn complete_per_layer(metrics: &mut Vec<Metric>) -> Vec<&'static str> {
    let mut out = Vec::with_capacity(PER_LAYER.len());
    let mut unused = Vec::new();
    for &(name, unit) in PER_LAYER {
        match metrics.iter().find(|m| m.0 == name) {
            Some(&m) => out.push(m),
            None => {
                out.push((name, 0.0, unit));
                unused.push(name);
            }
        }
    }
    *metrics = out;
    unused
}

fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = run_workload(&args);
    let _ = std::fs::remove_dir(SPILL_ROOT); // only if empty
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let mut meta: Vec<(&str, String)> = vec![
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_f64(args.seconds)),
        ("trace", args.trace.to_string()),
        (
            "available_parallelism",
            sys::available_parallelism().to_string(),
        ),
        (
            "cpu_model",
            format!("\"{}\"", sys::cpu_model().replace('"', "'")),
        ),
        (
            "git_commit",
            format!("\"{}\"", sys::git_commit(Path::new("."))),
        ),
        (
            "source_digest",
            format!(
                "\"{}\"",
                sys::source_digest(Path::new("."), &["crates", "shims"])
            ),
        ),
        ("unmeasured_layers", UNMEASURED.to_string()),
    ];
    meta.append(&mut outcome.meta);
    if args.trace {
        let unused = complete_per_layer(&mut outcome.metrics);
        let names: Vec<String> = unused.iter().map(|n| format!("\"{n}\"")).collect();
        meta.push(("layers_not_exercised", format!("[{}]", names.join(","))));
        if let Some(trace) = &outcome.trace {
            let dir = Path::new(".perfbench_out");
            let file = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
            match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&file, trace.to_jsonl()))
            {
                Ok(()) => meta.push(("trace_file", format!("\"{}\"", file.display()))),
                Err(e) => eprintln!("could not write {}: {e}", file.display()),
            }
            meta.push(("spans", trace.spans.len().to_string()));
        }
    }

    eprintln!("{} seed {}:", args.workload, args.seed);
    for (name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<30} {value:>14.4} {unit}");
    }
    eprintln!(
        "  attempted {} failed {} ({})",
        outcome.attempted,
        outcome.failed,
        if outcome.correct {
            "correct"
        } else {
            "INCORRECT"
        }
    );

    println!("{}", json_object(&[("meta", json_object(&meta))]));
    let metrics: Vec<(&str, String)> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                *name,
                format!("{{\"value\":{},\"unit\":\"{unit}\"}}", json_f64(*value)),
            )
        })
        .collect();
    println!(
        "{}",
        json_object(&[
            ("correct", outcome.correct.to_string()),
            ("attempted", outcome.attempted.to_string()),
            ("failed", outcome.failed.to_string()),
            ("metrics", json_object(&metrics)),
        ])
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer list printed by traced runs is the one the benchmark
    /// declares, name for name and unit for unit.
    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let declared = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        let mut rest = declared;
        for &(name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let at = rest
                .find(&entry)
                .unwrap_or_else(|| panic!("{entry} missing or out of order"));
            rest = &rest[at + entry.len()..];
        }
        assert_eq!(declared.matches("\"name\"").count(), PER_LAYER.len());
    }
}
