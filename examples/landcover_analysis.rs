//! Land-cover analysis: the NLCD-style workload of the paper's
//! evaluation. Generates a large land-cover-like mask, labels it in
//! parallel with PAREMSP, and reports per-phase timings and the largest
//! cover patches — the kind of query (patch size distribution) NLCD
//! rasters are labeled for in practice.
//!
//! ```text
//! cargo run --release --example landcover_analysis [-- <megapixels>]
//! ```

use paremsp::core::par::{paremsp_with, ParemspConfig};
use paremsp::datasets::synth::landcover::{landcover, LandcoverParams};

fn main() {
    let megapixels = megapixels_arg(8.0);
    let height = ((megapixels * 1.0e6) / (4.0 / 3.0)).sqrt().round() as usize;
    let width = (megapixels * 1.0e6 / height as f64).round() as usize;
    eprintln!("generating {width}x{height} land-cover mask…");
    let img = landcover(width, height, LandcoverParams::default(), 2026);
    println!(
        "raster: {width}x{height} ({:.1} MB), cover fraction {:.1}%",
        img.raster_bytes() as f64 / 1e6,
        img.density() * 100.0
    );

    let threads = std::thread::available_parallelism().map_or(8, |n| n.get());
    let (labels, timings) = paremsp_with(&img, &ParemspConfig::with_threads(threads));
    println!(
        "PAREMSP({} threads): {} patches in {:.1} ms \
         (scan {:.1} + merge {:.1} + flatten {:.1} + relabel {:.1})",
        threads,
        labels.num_components(),
        timings.total().as_secs_f64() * 1e3,
        timings.scan.as_secs_f64() * 1e3,
        timings.merge.as_secs_f64() * 1e3,
        timings.flatten.as_secs_f64() * 1e3,
        timings.relabel.as_secs_f64() * 1e3,
    );

    // Patch size distribution: the top 5 patches and a size histogram.
    let mut sizes: Vec<(u32, usize)> = labels
        .component_sizes()
        .into_iter()
        .enumerate()
        .skip(1)
        .map(|(l, s)| (l as u32, s))
        .collect();
    sizes.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
    println!("\nlargest cover patches:");
    for (label, size) in sizes.iter().take(5) {
        println!(
            "  patch {label}: {size} px ({:.2}% of raster)",
            *size as f64 / img.len() as f64 * 100.0
        );
    }
    let mut histogram = [0usize; 7]; // decades: 1, 10, 100, …
    for &(_, s) in &sizes {
        histogram[(s as f64).log10().floor().min(6.0) as usize] += 1;
    }
    println!("\npatch size histogram (by decade):");
    for (decade, count) in histogram.iter().enumerate() {
        if *count > 0 {
            println!("  10^{decade}..10^{} px: {count} patches", decade + 1);
        }
    }
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
    eprintln!("usage: landcover_analysis [<megapixels>]  (a positive size, default 8)");
    std::process::exit(2);
}
