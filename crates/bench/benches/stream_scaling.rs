//! Streaming-engine scaling: strip-labeled analysis vs whole-image
//! AREMSP + analysis, across band heights and scan thread counts.
//!
//! Expected shape: the strip labeler tracks whole-image AREMSP closely at
//! large bands (same scan, one extra seam per band plus the per-band
//! compaction), degrades gracefully toward 1-row bands (seam merges and
//! carry-row compaction per row), and the parallel mode — each band cut
//! into one column tile per thread, stitched along the vertical seams —
//! helps once bands are large enough to amortize the band split and the
//! task hand-off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use ccl_core::analysis::region_properties;
use ccl_core::seq::aremsp;
use ccl_datasets::synth::landcover::{landcover, LandcoverParams};
use ccl_stream::{label_stream, CountComponents, MemorySource, StripConfig};

fn bench_stream_scaling(c: &mut Criterion) {
    let img = landcover(1024, 4096, LandcoverParams::default(), 23);
    let mut group = c.benchmark_group("stream_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.throughput(Throughput::Bytes(img.raster_bytes() as u64));

    group.bench_with_input(
        BenchmarkId::new("whole-image", "aremsp+analysis"),
        &img,
        |b, img| {
            b.iter(|| {
                let labels = aremsp(img);
                black_box(region_properties(&labels))
            })
        },
    );

    for band in [64usize, 256, 1024, 4096] {
        group.bench_with_input(BenchmarkId::new("strip-seq", band), &band, |b, &band| {
            b.iter(|| {
                let mut src = MemorySource::new(&img);
                let mut sink = CountComponents::default();
                label_stream(&mut src, band, StripConfig::sequential(), &mut sink, None).unwrap();
                black_box(sink.count)
            })
        });
    }

    for threads in [2usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("strip-par-1024band", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut src = MemorySource::new(&img);
                    let mut sink = CountComponents::default();
                    label_stream(
                        &mut src,
                        1024,
                        StripConfig::parallel(threads),
                        &mut sink,
                        None,
                    )
                    .unwrap();
                    black_box(sink.count)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_stream_scaling);
criterion_main!(benches);
