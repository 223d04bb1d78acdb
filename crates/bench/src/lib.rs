//! # ccl-bench
//!
//! Benchmark harness reproducing **every table and figure** of Gupta et
//! al. (IPPS 2014). Two layers:
//!
//! * **Table binaries** (`src/bin/`): print paper-formatted tables and
//!   ASCII figures from full measurement sweeps —
//!   `cargo run --release -p ccl-bench --bin table2` (and `table4`,
//!   `fig4`, `fig5`, `stream_demo`, `repro_all`). See each binary's
//!   `--help`. `repro_all` also leaves two trajectory snapshots under
//!   `results/` (`BENCH_paremsp.json`, `BENCH_stream.json`) so perf is
//!   tracked commit to commit.
//! * **Criterion benches** (`benches/`): statistical micro-benchmarks per
//!   experiment, three design-choice ablations (union-find variant, scan
//!   strategy, merger implementation), the prior-art baseline, and the
//!   `ccl-stream` scaling bench — `cargo bench -p ccl-bench`.
//!
//! This library crate holds the shared experiment configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Thread counts of Table IV.
pub const TABLE4_THREADS: [usize; 4] = [2, 6, 16, 24];

/// Thread counts of Figure 4.
pub const FIG4_THREADS: [usize; 5] = [2, 6, 8, 16, 24];

/// Thread counts swept in Figure 5 (the paper plots 1–24).
pub const FIG5_THREADS: [usize; 8] = [1, 2, 4, 8, 12, 16, 20, 24];

/// Default NLCD scale for the table binaries: 0.05 × Table III keeps the
/// largest image at ≈ 23 Mpixel, big enough to show near-linear scaling
/// while regenerating in seconds. Use `--scale 1.0` for full fidelity.
pub const DEFAULT_NLCD_SCALE: f64 = 0.05;

/// Best-of-`reps` PAREMSP phase timings in milliseconds: every metric is
/// the minimum across repetitions, taken independently (the same
/// semantics fig5 has always used for its scan / local+merge / total
/// series). Shared by `fig5` and `repro_all`'s `BENCH_paremsp.json`
/// snapshot so the phase-timing logic exists exactly once.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct PhaseMsBest {
    /// Phase 1 (per-chunk scans), the paper's "local" time.
    pub scan: f64,
    /// Phase 2 (boundary merge).
    pub merge: f64,
    /// Phase 3 (FLATTEN).
    pub flatten: f64,
    /// Phase 4 (relabel).
    pub relabel: f64,
    /// Scan + merge — Figure 5b's quantity.
    pub local_plus_merge: f64,
    /// All four phases.
    pub total: f64,
}

/// Runs PAREMSP `reps` times (at least once) and returns the per-metric
/// best-of phase timings.
pub fn paremsp_phase_ms_best_of(
    image: &ccl_image::BinaryImage,
    cfg: &ccl_core::par::ParemspConfig,
    reps: usize,
) -> PhaseMsBest {
    let mut best = PhaseMsBest {
        scan: f64::INFINITY,
        merge: f64::INFINITY,
        flatten: f64::INFINITY,
        relabel: f64::INFINITY,
        local_plus_merge: f64::INFINITY,
        total: f64::INFINITY,
    };
    for _ in 0..reps.max(1) {
        let (_, ph) = ccl_core::par::paremsp_with(image, cfg);
        best.scan = best.scan.min(ph.scan.as_secs_f64() * 1e3);
        best.merge = best.merge.min(ph.merge.as_secs_f64() * 1e3);
        best.flatten = best.flatten.min(ph.flatten.as_secs_f64() * 1e3);
        best.relabel = best.relabel.min(ph.relabel.as_secs_f64() * 1e3);
        best.local_plus_merge = best
            .local_plus_merge
            .min(ph.local_plus_merge().as_secs_f64() * 1e3);
        best.total = best.total.min(ph.total().as_secs_f64() * 1e3);
    }
    best
}

/// Tiny CLI-argument helper shared by the table binaries: supports
/// `--scale <f64>`, `--reps <usize>`, `--threads <csv>`, `--json <path>`,
/// `--merger <locked|cas>`, `--prefetch`,
/// `--pipeline`, `--depth <n>`, `--print-sizes` and `--help`.
#[derive(Debug, Clone)]
pub struct BinArgs {
    /// NLCD scale factor (fraction of the Table III sizes).
    pub scale: f64,
    /// Timing repetitions per cell (best-of).
    pub reps: usize,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Optional thread-count override.
    pub threads: Option<Vec<usize>>,
    /// Optional boundary-merger override (parsed via
    /// [`MergerKind::from_str`](std::str::FromStr)).
    pub merger: Option<ccl_core::par::MergerKind>,
    /// `--prefetch`: wrap the source in a `ccl-pipeline` prefetcher
    /// (decode on a worker thread).
    pub prefetch: bool,
    /// `--pipeline`: run the drivers' pipelined executor (scan ∥ merge)
    /// where the binary supports it.
    pub pipeline: bool,
    /// `--depth <n>`: prefetch queue depth (default 2).
    pub depth: usize,
    /// `--print-sizes` flag (fig5: print Table III).
    pub print_sizes: bool,
}

impl Default for BinArgs {
    fn default() -> Self {
        BinArgs {
            scale: DEFAULT_NLCD_SCALE,
            reps: 3,
            json: None,
            threads: None,
            merger: None,
            prefetch: false,
            pipeline: false,
            depth: 2,
            print_sizes: false,
        }
    }
}

impl BinArgs {
    /// The boundary merger to use: the `--merger` override when given,
    /// otherwise the default. Shared by the binaries that sweep PAREMSP
    /// (`table4`, `fig5`) so the flag's semantics exist exactly once.
    pub fn merger_or_default(&self) -> ccl_core::par::MergerKind {
        self.merger.unwrap_or_default()
    }

    /// Parses `std::env::args`, printing `usage` and exiting on `--help`
    /// or a malformed argument.
    pub fn parse(usage: &str) -> BinArgs {
        let mut out = BinArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = |name: &str| {
                args.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}\n{usage}");
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--scale" => {
                    out.scale = value("--scale").parse().unwrap_or_else(|_| {
                        eprintln!("invalid --scale\n{usage}");
                        std::process::exit(2);
                    })
                }
                "--reps" => {
                    out.reps = value("--reps").parse().unwrap_or_else(|_| {
                        eprintln!("invalid --reps\n{usage}");
                        std::process::exit(2);
                    })
                }
                "--json" => out.json = Some(value("--json")),
                "--threads" => {
                    let csv = value("--threads");
                    let parsed: Result<Vec<usize>, _> =
                        csv.split(',').map(str::trim).map(str::parse).collect();
                    match parsed {
                        Ok(t) if !t.is_empty() && t.iter().all(|&x| x >= 1) => {
                            out.threads = Some(t)
                        }
                        _ => {
                            eprintln!("invalid --threads\n{usage}");
                            std::process::exit(2);
                        }
                    }
                }
                "--merger" => {
                    out.merger = Some(value("--merger").parse().unwrap_or_else(|e| {
                        eprintln!("invalid --merger: {e}\n{usage}");
                        std::process::exit(2);
                    }))
                }
                "--prefetch" => out.prefetch = true,
                "--pipeline" => out.pipeline = true,
                "--depth" => {
                    out.depth = value("--depth")
                        .parse()
                        .ok()
                        .filter(|&d| d >= 1)
                        .unwrap_or_else(|| {
                            eprintln!("invalid --depth\n{usage}");
                            std::process::exit(2);
                        })
                }
                "--print-sizes" => out.print_sizes = true,
                "--help" | "-h" => {
                    println!("{usage}");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument {other}\n{usage}");
                    std::process::exit(2);
                }
            }
        }
        out
    }
}

/// Path of the committed perf-trajectory log appended by `repro_all`
/// and by `stream_demo`, `tiles_demo` and `pipeline_demo` when they write
/// their default snapshot ([`write_snapshot`]): one JSON object per line, so
/// regressions are visible across commits (`git log -p results/…`) and
/// CI uploads the whole `results/` directory as an artifact.
pub const HISTORY_PATH: &str = "results/BENCH_HISTORY.jsonl";

/// Appends one record to [`HISTORY_PATH`]:
/// `{"bench": <name>, "unix_ms": <now>, "data": <value>}` on a single
/// line. Creates `results/` when missing.
pub fn append_history<T: serde::Serialize>(bench: &str, value: &T) -> std::io::Result<()> {
    use std::io::Write as _;
    let to_io = |e: serde_json::Error| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    // the name goes through the serializer too, so quotes/backslashes in
    // a future bench name can never corrupt the line log
    let name = serde_json::to_string_pretty(&bench).map_err(to_io)?;
    let data = serde_json::to_string_pretty(value).map_err(to_io)?;
    let line = format!(
        "{{\"bench\": {name}, \"unix_ms\": {unix_ms}, \"data\": {}}}\n",
        compact_json(&data)
    );
    std::fs::create_dir_all("results")?;
    let mut f = std::fs::File::options()
        .create(true)
        .append(true)
        .open(HISTORY_PATH)?;
    f.write_all(line.as_bytes())
}

/// Writes a demo's JSON snapshot to `json` (its `--json PATH`) or, when
/// that is `None`, to `default` under `results/`, creating the parent
/// directory. Only a snapshot at its default path is a measurement worth
/// keeping, so only then is it also appended to [`HISTORY_PATH`] as
/// `bench`: a smoke run that sends its snapshot elsewhere leaves the
/// committed history alone.
pub fn write_snapshot<T: serde::Serialize>(
    bench: &str,
    json: Option<&str>,
    default: &str,
    value: &T,
) {
    let path = std::path::Path::new(json.unwrap_or(default));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create snapshot dir");
    }
    ccl_datasets::report::write_json(path, value).expect("write json");
    if path == std::path::Path::new(default) {
        append_history(bench, value).expect("append history");
        eprintln!("wrote {} (+ {HISTORY_PATH})", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

/// Collapses pretty-printed JSON to one line by dropping all whitespace
/// outside string literals (JSON whitespace is insignificant there). The
/// offline `serde_json` shim only pretty-prints; this keeps the history
/// file one-record-per-line regardless.
pub fn compact_json(pretty: &str) -> String {
    let mut out = String::with_capacity(pretty.len());
    let mut in_string = false;
    let mut escaped = false;
    for ch in pretty.chars() {
        if in_string {
            out.push(ch);
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_string = false;
            }
        } else if ch == '"' {
            in_string = true;
            out.push(ch);
        } else if !ch.is_whitespace() {
            out.push(ch);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let a = BinArgs::default();
        assert_eq!(a.scale, DEFAULT_NLCD_SCALE);
        assert!(a.reps >= 1);
        assert!(a.json.is_none());
        assert!(a.merger.is_none());
        assert!(!a.prefetch);
        assert!(!a.pipeline);
        assert_eq!(a.depth, 2);
        assert!(!a.print_sizes);
    }

    #[test]
    fn thread_constants_match_paper() {
        assert_eq!(TABLE4_THREADS, [2, 6, 16, 24]);
        assert_eq!(FIG4_THREADS, [2, 6, 8, 16, 24]);
        assert!(FIG5_THREADS.contains(&24));
    }

    #[test]
    fn merger_or_default_prefers_override() {
        use ccl_core::par::MergerKind;
        let mut a = BinArgs::default();
        assert_eq!(a.merger_or_default(), MergerKind::default());
        a.merger = Some(MergerKind::Cas);
        assert_eq!(a.merger_or_default(), MergerKind::Cas);
    }

    #[test]
    fn compact_json_strips_formatting_but_not_strings() {
        let pretty = "{\n  \"a b\": [\n    1,\n    \"x \\\" y\\n\"\n  ]\n}";
        assert_eq!(compact_json(pretty), "{\"a b\":[1,\"x \\\" y\\n\"]}");
    }

    #[test]
    fn compact_json_round_trips_serializer_output() {
        #[derive(serde::Serialize)]
        struct S {
            name: String,
            xs: Vec<f64>,
        }
        let s = S {
            name: "two words".into(),
            xs: vec![1.5, 2.0],
        };
        let compact = compact_json(&serde_json::to_string_pretty(&s).unwrap());
        assert!(!compact.contains('\n'));
        assert!(compact.contains("\"two words\""));
    }
}
