//! Thread-scaling demo: a miniature Figure 5 in one binary. Sweeps
//! PAREMSP over thread counts on one image and prints per-phase times,
//! speedup and efficiency.
//!
//! ```text
//! cargo run --release --example scaling_demo [-- <megapixels>]
//! ```

use paremsp::core::par::{paremsp_with, ParemspConfig};
use paremsp::datasets::harness::time_best_of;
use paremsp::datasets::report::Table;
use paremsp::datasets::speedup::speedup;
use paremsp::datasets::synth::landcover::{landcover, LandcoverParams};

fn main() {
    let megapixels = megapixels_arg(16.0);
    let side = (megapixels * 1.0e6).sqrt().round() as usize;
    eprintln!("generating {side}x{side} image…");
    let img = landcover(side, side, LandcoverParams::default(), 4242);

    // Powers of two below the host's core count, then the count itself:
    // no row oversubscribes the host.
    let max_threads = std::thread::available_parallelism().map_or(8, |n| n.get());
    let mut threads: Vec<usize> = (0..)
        .map(|k| 1 << k)
        .take_while(|&t| t < max_threads)
        .collect();
    threads.push(max_threads);

    let mut table = Table::new([
        "#threads",
        "scan ms",
        "merge ms",
        "total ms",
        "speedup",
        "efficiency",
    ]);
    let mut baseline = 0.0f64;
    for &t in &threads {
        let cfg = ParemspConfig::with_threads(t);
        // best-of-3 total; phases from a representative run
        let total = time_best_of(3, || paremsp_with(&img, &cfg));
        let (_, phases) = paremsp_with(&img, &cfg);
        if t == 1 {
            baseline = total;
        }
        let s = speedup(baseline, total);
        table.push_row([
            t.to_string(),
            format!("{:.1}", phases.scan.as_secs_f64() * 1e3),
            format!("{:.1}", phases.merge.as_secs_f64() * 1e3),
            format!("{total:.1}"),
            format!("{s:.2}"),
            format!("{:.0}%", s / t as f64 * 100.0),
        ]);
    }
    println!("\n{}", table.render());
}

/// The optional `<megapixels>` argument, `default` when absent. A value
/// that is not a number, is below one pixel, or comes with extra
/// arguments prints usage to stderr and exits 2.
fn megapixels_arg(default: f64) -> f64 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => return default,
        [arg] => match arg.parse::<f64>() {
            Ok(mp) if mp.is_finite() && mp * 1.0e6 >= 1.0 => return mp,
            _ => eprintln!("invalid <megapixels> {arg:?}"),
        },
        [_, extra, ..] => eprintln!("unexpected argument {extra:?}"),
    }
    eprintln!("usage: scaling_demo [<megapixels>]  (a positive size, default 16)");
    std::process::exit(2);
}
