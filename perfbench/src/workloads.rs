//! The four workloads. Each makes its inputs from the seed during set-up
//! and hands the engines only the generated PBM bytes or images.

use std::fs;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ccl_core::par::{paremsp_with, ParemspConfig, PhaseTimings};
use ccl_core::seq::aremsp;
use ccl_core::verify::labelings_equivalent;
use ccl_core::LabelImage;
use ccl_datasets::synth::landcover::{landcover, LandcoverParams};
use ccl_datasets::synth::noise::bernoulli;
use ccl_datasets::synth::shapes::{shape_scene, text_page};
use ccl_image::io::pbm;
use ccl_image::BinaryImage;
use ccl_pipeline::PrefetchRows;
use ccl_stream::{PbmSource, RowSource, StreamStats, StripConfig, StripLabeler};
use ccl_tiles::{
    read_spilled_label_image, GridSource, SpillFormat, SpillSink, TileGridConfig, TileGridLabeler,
    TileGridStats, TileSource,
};

use crate::check::{labels_digest, Digest, DigestSink, Fnv};
use crate::harness::{Metric, PassRun, Workload};
use crate::trace::{Leaf, Trace, Tracer};
use crate::wrap::{TracedComponents, TracedRows, TracedTiles};

/// Width of the strip workloads' rasters.
pub const STRIP_WIDTH: usize = 2048;
/// Band height of the strip workloads (one item).
pub const BAND_ROWS: usize = 256;
/// Rows of the `strip-noise` raster.
pub const NOISE_ROWS: usize = 8192;
/// Rows of the `strip-landcover` raster.
pub const LANDCOVER_ROWS: usize = 4096;
/// Width of the `tiles-spill` raster.
pub const TILES_WIDTH: usize = 4096;
/// Rows of the `tiles-spill` raster.
pub const TILES_ROWS: usize = 2048;
/// Tile edge of `tiles-spill` (256 × 256 tiles, 16 tile columns).
pub const TILE: usize = 256;
/// Frames per batch of `frames-paremsp` (one batch is one pass).
pub const FRAMES: usize = 16;
/// Edge of one `frames-paremsp` frame.
pub const FRAME_EDGE: usize = 512;
/// Worker threads of every parallel engine call (the host has 2 cores).
pub const THREADS: usize = 2;
/// Bands, tile rows or frames labeled by each set-up's warm-up.
const WARMUP_ITEMS: usize = 4;

/// splitmix64 of `seed ^ salt`: independent generator seeds per input.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = (seed ^ salt).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn generate<T>(tracer: &Tracer, f: impl FnOnce() -> T) -> T {
    let _span = tracer.span("datasets.generate");
    f()
}

fn encode(tracer: &Tracer, image: &BinaryImage) -> Arc<[u8]> {
    let _span = tracer.span("image.encode");
    pbm::write_binary(image).into()
}

fn bytes_digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn per_pass(total: f64, passes: usize) -> f64 {
    total / passes.max(1) as f64
}

fn decode_metrics(trace: &Trace, passes: usize, mpx: f64) -> Vec<Metric> {
    let decode_ms = per_pass(trace.total_ms("image.decode"), passes);
    let rate = if decode_ms > 0.0 {
        mpx / (decode_ms / 1e3)
    } else {
        0.0
    };
    vec![
        ("image.decode_ms", decode_ms, "ms"),
        ("image.decode_mpx_s", rate, "Mpx/s"),
    ]
}

/// Band decoder over in-memory PBM bytes, its `next_band` traced as
/// `image.decode`.
type PbmBands = TracedRows<PbmSource<Cursor<Arc<[u8]>>>>;

fn pbm_bands(pbm: &Arc<[u8]>, tracer: &Tracer) -> Result<PbmBands, String> {
    let src = PbmSource::new(Cursor::new(Arc::clone(pbm))).map_err(|e| e.to_string())?;
    Ok(TracedRows::new(src, tracer.clone(), "image.decode"))
}

/// Decodes PBM bytes into a whole image (reference side only).
fn decode_whole(bytes: &[u8]) -> Result<BinaryImage, String> {
    pbm::read(bytes).map_err(|e| format!("reference decode: {e}"))
}

// ---------------------------------------------------------------- strips

/// `strip-noise` and `strip-landcover`: a PBM raster decoded band by band
/// and labeled by `StripLabeler` into a records sink.
pub struct Strip {
    pbm: Arc<[u8]>,
    height: usize,
    config: StripConfig,
    prefetch: bool,
    generator: &'static str,
    reference: Option<Digest>,
    open_peak: usize,
    peak_resident_rows: usize,
}

/// Output of one strip pass.
pub struct StripOutput {
    digest: Digest,
    stats: StreamStats,
}

impl Strip {
    /// `strip-noise`: Bernoulli p = 0.5, decoded on the labeling thread,
    /// in-band PAREMSP on [`THREADS`] workers.
    pub fn noise(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let image = generate(tracer, || {
            bernoulli(STRIP_WIDTH, NOISE_ROWS, 0.5, derive_seed(seed, 1))
        });
        Self::new(
            tracer,
            &image,
            StripConfig::parallel(THREADS),
            false,
            "bernoulli(p=0.5)",
        )
    }

    /// `strip-landcover`: fBm landcover decoded on a prefetch worker
    /// (depth 2), labeled sequentially on the main thread.
    pub fn landcover(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let image = generate(tracer, || {
            landcover(
                STRIP_WIDTH,
                LANDCOVER_ROWS,
                LandcoverParams::default(),
                derive_seed(seed, 2),
            )
        });
        Self::new(
            tracer,
            &image,
            StripConfig::sequential(),
            true,
            "landcover(default)",
        )
    }

    fn new(
        tracer: &Tracer,
        image: &BinaryImage,
        config: StripConfig,
        prefetch: bool,
        generator: &'static str,
    ) -> Result<Self, String> {
        let pbm = encode(tracer, image);
        let strip = Strip {
            pbm,
            height: image.height(),
            config,
            prefetch,
            generator,
            reference: None,
            open_peak: 0,
            peak_resident_rows: 0,
        };
        let warmup = tracer.span("setup.warmup");
        let mut src = pbm_bands(&strip.pbm, &Tracer::off())?;
        let mut labeler = StripLabeler::with_config(STRIP_WIDTH, strip.config.clone());
        let mut sink = DigestSink::default();
        for _ in 0..WARMUP_ITEMS {
            match src.next_band(BAND_ROWS).map_err(|e| e.to_string())? {
                Some(band) => labeler
                    .push_band(&band, &mut sink)
                    .map_err(|e| e.to_string())?,
                None => break,
            }
        }
        drop(warmup);
        Ok(strip)
    }
}

impl Workload for Strip {
    type Output = StripOutput;

    fn input_digest(&self) -> u64 {
        bytes_digest(&self.pbm)
    }

    fn prepare_reference(&mut self) -> Result<(), String> {
        self.reference = Some(labels_digest(&aremsp(&decode_whole(&self.pbm)?)));
        Ok(())
    }

    fn mpx_per_pass(&self) -> f64 {
        (STRIP_WIDTH * self.height) as f64 / 1e6
    }

    fn items_per_pass(&self) -> usize {
        self.height.div_ceil(BAND_ROWS)
    }

    fn pass(&mut self, tracer: &Tracer) -> Result<PassRun<StripOutput>, String> {
        let decoder = pbm_bands(&self.pbm, tracer)?;
        let mut src: Box<dyn RowSource> = if self.prefetch {
            let prefetch = PrefetchRows::with_depth(decoder, BAND_ROWS, 2);
            Box::new(TracedRows::new(
                prefetch,
                tracer.clone(),
                "pipeline.next_band",
            ))
        } else {
            Box::new(decoder)
        };
        let mut labeler = StripLabeler::with_config(src.width(), self.config.clone());
        let mut sink = DigestSink::default();
        let mut comps = TracedComponents::new(&mut sink, tracer);
        let mut latencies_ms = Vec::with_capacity(self.items_per_pass());
        loop {
            let t0 = Instant::now();
            let Some(band) = src.next_band(BAND_ROWS).map_err(|e| e.to_string())? else {
                break;
            };
            {
                let _span = tracer.span("stream.push_band");
                labeler
                    .push_band(&band, &mut comps)
                    .map_err(|e| e.to_string())?;
            }
            latencies_ms.push(ms_since(t0));
            self.open_peak = self.open_peak.max(labeler.open_components());
        }
        let stats = {
            let _span = tracer.span("stream.finish");
            labeler.finish(&mut comps)
        };
        drop(src); // joins the prefetch worker inside the pass
        self.peak_resident_rows = self.peak_resident_rows.max(stats.peak_resident_rows);
        Ok(PassRun {
            output: StripOutput {
                digest: sink.0,
                stats,
            },
            latencies_ms,
        })
    }

    fn verify(&mut self, out: StripOutput) -> usize {
        let reference = self
            .reference
            .expect("reference prepared before the passes");
        let mut ok = true;
        if out.digest != reference {
            eprintln!(
                "records differ from whole-image aremsp: {} components (digest {:016x}), expected {} ({:016x})",
                out.digest.count, out.digest.sum, reference.count, reference.sum
            );
            ok = false;
        }
        if out.stats.components != out.digest.count || out.stats.rows != self.height {
            eprintln!(
                "stream stats disagree with the output: {} components, {} rows",
                out.stats.components, out.stats.rows
            );
            ok = false;
        }
        if ok {
            0
        } else {
            self.items_per_pass()
        }
    }

    fn sizes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("generator", format!("\"{}\"", self.generator)),
            ("width", STRIP_WIDTH.to_string()),
            ("height", self.height.to_string()),
            ("band_rows", BAND_ROWS.to_string()),
            ("threads", self.config.threads.to_string()),
            (
                "prefetch_depth",
                if self.prefetch { "2" } else { "0" }.to_string(),
            ),
            ("pbm_bytes", self.pbm.len().to_string()),
            (
                "components",
                self.reference
                    .map_or("null".to_string(), |d| d.count.to_string()),
            ),
        ]
    }

    fn layer_metrics(&mut self, trace: &Trace, passes: usize) -> Vec<Metric> {
        let mut m = decode_metrics(trace, passes, self.mpx_per_pass());
        if self.prefetch {
            let wait = per_pass(trace.total_ms("pipeline.next_band"), passes);
            let busy = per_pass(trace.total_ms("image.decode"), passes);
            let hidden = if busy > 0.0 { 1.0 - wait / busy } else { 0.0 };
            m.push(("pipeline.consumer_wait_ms", wait, "ms"));
            m.push(("pipeline.decode_hidden_frac", hidden, "frac"));
        }
        m.extend([
            (
                "stream.push_band_ms",
                per_pass(trace.self_ms("stream.push_band"), passes),
                "ms",
            ),
            (
                "stream.finish_ms",
                per_pass(trace.self_ms("stream.finish"), passes),
                "ms",
            ),
            (
                "stream.emit_ms",
                per_pass(trace.leaf_ms(Leaf::Emit), passes),
                "ms",
            ),
            (
                "stream.records",
                per_pass(trace.leaf_calls(Leaf::Emit) as f64, passes),
                "count",
            ),
            (
                "stream.bands",
                per_pass(trace.count("stream.push_band") as f64, passes),
                "count",
            ),
            (
                "stream.open_components_peak",
                self.open_peak as f64,
                "count",
            ),
            (
                "stream.peak_resident_rows",
                self.peak_resident_rows as f64,
                "rows",
            ),
        ]);
        m
    }
}

// ----------------------------------------------------------------- tiles

/// A spill directory that is removed when dropped, whether the pass that
/// wrote it was verified, failed or panicked.
pub struct SpillDir(PathBuf);

impl SpillDir {
    /// Creates `path`, refusing one that already exists: a leftover is
    /// never reused.
    pub fn create(path: PathBuf) -> Result<Self, String> {
        if path.exists() {
            return Err(format!(
                "spill directory {} already exists (left over from an earlier run?); remove it",
                path.display()
            ));
        }
        fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(SpillDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Total size of the regular files directly inside the directory.
    pub fn bytes(&self) -> u64 {
        fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Removes the directory, reporting failure.
    pub fn remove(mut self) -> Result<(), String> {
        let path = std::mem::take(&mut self.0);
        fs::remove_dir_all(&path).map_err(|e| format!("remove {}: {e}", path.display()))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if !self.0.as_os_str().is_empty() {
            let _ = fs::remove_dir_all(&self.0);
        }
    }
}

/// Root under which `tiles-spill` writes, relative to the working
/// directory (the root of the checkout).
pub const SPILL_ROOT: &str = ".perfbench_spill";

/// `tiles-spill`: a text page cut into 256 × 256 tiles, labeled by
/// `TileGridLabeler` on [`THREADS`] workers, labels spilled as raw `u32`.
pub struct TilesSpill {
    pbm: Arc<[u8]>,
    root: Option<SpillDir>,
    passes: usize,
    reference: Option<Digest>,
    open_peak: usize,
    peak_resident_rows: usize,
    spill_bytes: Vec<u64>,
}

/// Output of one tiles pass.
pub struct TilesOutput {
    dir: SpillDir,
    digest: Digest,
    stats: TileGridStats,
}

impl TilesSpill {
    /// Generates the page and warms up on its first tile rows.
    pub fn setup(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let image = generate(tracer, || {
            text_page(TILES_WIDTH, TILES_ROWS, 1, derive_seed(seed, 3))
        });
        let pbm = encode(tracer, &image);
        let warmup = tracer.span("setup.warmup");
        let mut grid = Self::grid(&pbm, &Tracer::off())?;
        let mut labeler =
            TileGridLabeler::with_config(grid.width(), TileGridConfig::parallel(THREADS));
        let mut sink = DigestSink::default();
        for _ in 0..WARMUP_ITEMS {
            match grid.next_tile_row().map_err(|e| e.to_string())? {
                Some(row) => labeler
                    .push_tile_row(&row, &mut sink)
                    .map_err(|e| e.to_string())?,
                None => break,
            }
        }
        drop(warmup);
        Ok(TilesSpill {
            pbm,
            root: None,
            passes: 0,
            reference: None,
            open_peak: 0,
            peak_resident_rows: 0,
            spill_bytes: Vec::new(),
        })
    }

    fn grid(pbm: &Arc<[u8]>, tracer: &Tracer) -> Result<GridSource<PbmBands>, String> {
        Ok(GridSource::new(pbm_bands(pbm, tracer)?, TILE, TILE))
    }
}

impl Workload for TilesSpill {
    type Output = TilesOutput;

    fn input_digest(&self) -> u64 {
        bytes_digest(&self.pbm)
    }

    fn prepare_reference(&mut self) -> Result<(), String> {
        self.reference = Some(labels_digest(&aremsp(&decode_whole(&self.pbm)?)));
        // Directories of runs that were killed before they could clean up
        // are never reused (the name carries the pid); they are reported.
        if let Ok(entries) = fs::read_dir(SPILL_ROOT) {
            for e in entries.flatten() {
                eprintln!(
                    "leftover spill directory {} (remove it)",
                    e.path().display()
                );
            }
        }
        let root = Path::new(SPILL_ROOT).join(format!("tiles-spill-pid{}", std::process::id()));
        self.root = Some(SpillDir::create(root)?);
        Ok(())
    }

    fn mpx_per_pass(&self) -> f64 {
        (TILES_WIDTH * TILES_ROWS) as f64 / 1e6
    }

    fn items_per_pass(&self) -> usize {
        TILES_ROWS.div_ceil(TILE)
    }

    fn pass(&mut self, tracer: &Tracer) -> Result<PassRun<TilesOutput>, String> {
        let root = self
            .root
            .as_ref()
            .expect("spill root prepared before the passes");
        let dir = SpillDir::create(root.path().join(format!("pass-{:05}", self.passes)))?;
        self.passes += 1;
        let mut grid = Self::grid(&self.pbm, tracer)?;
        let mut labeler =
            TileGridLabeler::with_config(grid.width(), TileGridConfig::parallel(THREADS));
        let mut sink = DigestSink::default();
        let mut comps = TracedComponents::new(&mut sink, tracer);
        let spill =
            SpillSink::create(dir.path(), SpillFormat::RawU32).map_err(|e| e.to_string())?;
        let mut spill = TracedTiles::new(spill, tracer.clone());
        let mut latencies_ms = Vec::with_capacity(self.items_per_pass());
        loop {
            let t0 = Instant::now();
            let row = {
                let _span = tracer.span("tiles.next_tile_row");
                grid.next_tile_row().map_err(|e| e.to_string())?
            };
            let Some(row) = row else { break };
            {
                let _span = tracer.span("tiles.push_tile_row");
                labeler
                    .push_tile_row_with_labels(&row, &mut comps, &mut spill)
                    .map_err(|e| e.to_string())?;
            }
            latencies_ms.push(ms_since(t0));
            self.open_peak = self.open_peak.max(labeler.open_components());
        }
        let stats = {
            let _span = tracer.span("tiles.finish");
            labeler.finish(&mut comps)
        };
        {
            let _span = tracer.span("tiles.spill_close");
            spill.into_inner().close().map_err(|e| e.to_string())?;
        }
        self.peak_resident_rows = self.peak_resident_rows.max(stats.peak_resident_rows);
        Ok(PassRun {
            output: TilesOutput {
                dir,
                digest: sink.0,
                stats,
            },
            latencies_ms,
        })
    }

    fn verify(&mut self, out: TilesOutput) -> usize {
        let reference = self
            .reference
            .expect("reference prepared before the passes");
        let mut ok = true;
        if out.digest != reference || out.stats.components != reference.count {
            eprintln!(
                "tile records differ from whole-image aremsp: {} components, expected {}",
                out.digest.count, reference.count
            );
            ok = false;
        }
        self.spill_bytes.push(out.dir.bytes());
        // the reference labels are rebuilt here, outside the timed pass,
        // so they never sit in the pass's resident set
        let labels = read_spilled_label_image(out.dir.path())
            .map_err(|e| format!("read spill: {e}"))
            .and_then(|spilled| {
                let whole = aremsp(&decode_whole(&self.pbm)?);
                Ok(labelings_equivalent(&spilled, &whole))
            });
        match labels {
            Ok(true) => {}
            Ok(false) => {
                eprintln!("spilled label image is not equivalent to whole-image aremsp");
                ok = false;
            }
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
        if let Err(e) = out.dir.remove() {
            eprintln!("{e}");
            ok = false;
        }
        if ok {
            0
        } else {
            self.items_per_pass()
        }
    }

    fn sizes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("generator", "\"text_page(scale=1)\"".to_string()),
            ("width", TILES_WIDTH.to_string()),
            ("height", TILES_ROWS.to_string()),
            ("tile", format!("[{TILE},{TILE}]")),
            ("tile_cols", TILES_WIDTH.div_ceil(TILE).to_string()),
            ("threads", THREADS.to_string()),
            ("spill_format", "\"raw-u32\"".to_string()),
            ("pbm_bytes", self.pbm.len().to_string()),
            (
                "components",
                self.reference
                    .map_or("null".to_string(), |d| d.count.to_string()),
            ),
        ]
    }

    fn layer_metrics(&mut self, trace: &Trace, passes: usize) -> Vec<Metric> {
        let mut m = decode_metrics(trace, passes, self.mpx_per_pass());
        let spill_bytes = if self.spill_bytes.is_empty() {
            0.0
        } else {
            self.spill_bytes.iter().sum::<u64>() as f64 / self.spill_bytes.len() as f64
        };
        m.extend([
            (
                "tiles.push_tile_row_ms",
                per_pass(trace.self_ms("tiles.push_tile_row"), passes),
                "ms",
            ),
            (
                "tiles.emit_ms",
                per_pass(trace.leaf_ms(Leaf::Emit), passes),
                "ms",
            ),
            (
                "tiles.merge_events",
                per_pass(trace.leaf_calls(Leaf::Merge) as f64, passes),
                "count",
            ),
            (
                "tiles.tiles",
                per_pass(trace.count("tiles.spill_write") as f64, passes),
                "count",
            ),
            ("tiles.open_components_peak", self.open_peak as f64, "count"),
            (
                "tiles.peak_resident_rows",
                self.peak_resident_rows as f64,
                "rows",
            ),
            (
                "tiles.spill_write_ms",
                per_pass(trace.total_ms("tiles.spill_write"), passes),
                "ms",
            ),
            ("tiles.spill_bytes", spill_bytes, "bytes"),
            (
                "tiles.spill_close_ms",
                per_pass(trace.total_ms("tiles.spill_close"), passes),
                "ms",
            ),
        ]);
        m
    }
}

// ---------------------------------------------------------------- frames

/// `frames-paremsp`: a batch of small whole-image frames, each labeled by
/// `paremsp_with` on [`THREADS`] workers.
pub struct Frames {
    frames: Vec<BinaryImage>,
    config: ParemspConfig,
    phases: PhaseTimings,
}

impl Frames {
    /// Alternates text pages and shape scenes.
    pub fn setup(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let frames: Vec<BinaryImage> = (0..FRAMES)
            .map(|i| {
                let s = derive_seed(seed, 0x100 + i as u64);
                generate(tracer, || {
                    if i % 2 == 0 {
                        text_page(FRAME_EDGE, FRAME_EDGE, 1, s)
                    } else {
                        shape_scene(FRAME_EDGE, FRAME_EDGE, 24, s)
                    }
                })
            })
            .collect();
        let config = ParemspConfig::with_threads(THREADS);
        {
            let _span = tracer.span("setup.warmup");
            for frame in frames.iter().take(WARMUP_ITEMS) {
                std::hint::black_box(paremsp_with(frame, &config));
            }
        }
        Ok(Frames {
            frames,
            config,
            phases: PhaseTimings::default(),
        })
    }
}

impl Workload for Frames {
    type Output = Vec<LabelImage>;

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for f in &self.frames {
            h.write(f.as_slice());
        }
        h.finish()
    }

    fn prepare_reference(&mut self) -> Result<(), String> {
        // references are cheap per frame and rebuilt in `verify`
        Ok(())
    }

    fn mpx_per_pass(&self) -> f64 {
        (FRAMES * FRAME_EDGE * FRAME_EDGE) as f64 / 1e6
    }

    fn items_per_pass(&self) -> usize {
        FRAMES
    }

    fn pass(&mut self, tracer: &Tracer) -> Result<PassRun<Vec<LabelImage>>, String> {
        let mut outputs = Vec::with_capacity(FRAMES);
        let mut latencies_ms = Vec::with_capacity(FRAMES);
        for frame in &self.frames {
            let t0 = Instant::now();
            let (labels, phases) = {
                let _span = tracer.span("core.paremsp_with");
                paremsp_with(frame, &self.config)
            };
            latencies_ms.push(ms_since(t0));
            if tracer.is_on() {
                self.phases.scan += phases.scan;
                self.phases.merge += phases.merge;
                self.phases.flatten += phases.flatten;
                self.phases.relabel += phases.relabel;
            }
            outputs.push(labels);
        }
        Ok(PassRun {
            output: outputs,
            latencies_ms,
        })
    }

    fn verify(&mut self, outputs: Vec<LabelImage>) -> usize {
        let mut failed = 0;
        for (i, (frame, out)) in self.frames.iter().zip(&outputs).enumerate() {
            if !labelings_equivalent(out, &aremsp(frame)) {
                eprintln!("frame {i}: paremsp labeling is not equivalent to aremsp");
                failed += 1;
            }
        }
        failed + FRAMES.saturating_sub(outputs.len())
    }

    fn sizes(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "generator",
                "\"alternating text_page(scale=1) / shape_scene(24 shapes)\"".to_string(),
            ),
            ("frames", FRAMES.to_string()),
            ("frame", format!("[{FRAME_EDGE},{FRAME_EDGE}]")),
            ("threads", self.config.threads.to_string()),
            ("merger", format!("\"{}\"", self.config.merger)),
        ]
    }

    fn layer_metrics(&mut self, trace: &Trace, passes: usize) -> Vec<Metric> {
        let ms = |d: std::time::Duration| per_pass(d.as_secs_f64() * 1e3, passes);
        // single-threaded baseline on the same frames, timed like a pass
        let reps = passes.clamp(3, 9);
        let mut baseline: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                for frame in &self.frames {
                    std::hint::black_box(aremsp(frame));
                }
                ms_since(t0)
            })
            .collect();
        baseline.sort_by(f64::total_cmp);
        let aremsp_ms = baseline[reps / 2];
        let paremsp_ms = per_pass(trace.total_ms("core.paremsp_with"), passes);
        vec![
            ("core.scan_ms", ms(self.phases.scan), "ms"),
            ("core.merge_ms", ms(self.phases.merge), "ms"),
            ("core.flatten_ms", ms(self.phases.flatten), "ms"),
            ("core.relabel_ms", ms(self.phases.relabel), "ms"),
            ("core.aremsp_baseline_ms", aremsp_ms, "ms"),
            (
                "core.paremsp_over_aremsp",
                if aremsp_ms > 0.0 {
                    paremsp_ms / aremsp_ms
                } else {
                    0.0
                },
                "x",
            ),
        ]
    }
}
