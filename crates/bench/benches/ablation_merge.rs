//! Ablation A3 — the boundary-merge implementation: the paper's
//! lock-guarded MERGER (Algorithm 8) vs the CAS-only variant, plus lock
//! stripe-count sensitivity, at 24 threads on a boundary-merge-heavy
//! image (fine vertical structure maximizes cross-chunk merges).
//!
//! Expected shape: near-identical (Figure 5a ≈ 5b — merging is a tiny
//! fraction of the work); tiny stripe counts degrade the locked merger.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use ccl_core::par::{paremsp_with, MergerKind, ParemspConfig};
use ccl_datasets::synth::adversarial::comb;
use ccl_datasets::synth::landcover::{landcover, LandcoverParams};

fn bench_merge(c: &mut Criterion) {
    let images = vec![
        ("comb", comb(2048, 1024, 512)),
        (
            "landcover",
            landcover(2048, 1024, LandcoverParams::default(), 41),
        ),
    ];
    let mut group = c.benchmark_group("ablation_merge");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(400));
    let threads = 24;
    for (name, img) in &images {
        group.throughput(Throughput::Bytes(img.raster_bytes() as u64));
        for (label, merger, stripes) in [
            ("locked-64k", MergerKind::Locked, None),
            ("locked-16", MergerKind::Locked, Some(16)),
            ("cas", MergerKind::Cas, None),
        ] {
            let cfg = ParemspConfig {
                threads,
                merger,
                lock_stripes: stripes,
            };
            group.bench_with_input(BenchmarkId::new(label, name), img, |b, img| {
                b.iter(|| black_box(paremsp_with(img, &cfg)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_merge);
criterion_main!(benches);
