//! # ccl-tiles
//!
//! The spill format of the out-of-core labeler: labeled tiles written to
//! disk — the PAREMSP reproduction's (Gupta et al., IPPS 2014)
//! bounded-memory *output* next to `ccl-stream`'s bounded-memory input.
//!
//! `ccl-stream`'s one labeler, [`StripLabeler`](ccl_stream::StripLabeler),
//! labels strip bands and tile rows alike, and sends its labels through a
//! [`TileSink`]: a tile row as its tiles, a strip band as one full-width
//! tile. [`SpillSink`] writes each labeled tile to disk once (raw
//! little-endian `u32` or 16-bit PGM) with its emission-time ids, and
//! commits the spill on close by renaming a sidecar manifest into place.
//! A tile's raw samples resolve to components through the manifest's
//! merge table ([`read_manifest`], [`read_spilled_label_image`]) — so a
//! gigapixel labeling run never holds more than a tile row of pixels or
//! labels.
//!
//! The tile-grid names re-exported here are `ccl-stream`'s:
//! [`TileGridLabeler`] is its labeler, [`TileGridConfig`] /
//! [`TileGridStats`] its config and stats, [`TilesError`] its one error
//! type, and [`TileSource`] / [`GridSource`] / [`TileRow`], [`TileSink`] /
//! [`TileMeta`] / [`CollectTiles`] and [`label_tiles`] / [`analyze_tiles`]
//! its tile sources, label output and drivers.
//!
//! ## Example
//!
//! ```
//! use ccl_datasets::synth::stream::bernoulli_stream;
//! use ccl_tiles::{analyze_tiles, GridSource, TileGridConfig};
//!
//! // A 96 × 4096 noise raster in 32×32 tiles: the labeler never holds
//! // more than 33 pixel rows (one tile row + the carry row).
//! let source = bernoulli_stream(96, 4096, 0.4, 7);
//! let mut grid = GridSource::new(source, 32, 32);
//! let (components, stats) = analyze_tiles(&mut grid, TileGridConfig::default()).unwrap();
//! assert_eq!(stats.components as usize, components.len());
//! assert!(stats.peak_resident_rows <= 33);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sink;

pub use ccl_stream::{
    analyze_tiles, label_tiles, CollectTiles, GridSource, StreamError as TilesError,
    StreamStats as TileGridStats, StripConfig as TileGridConfig, StripLabeler as TileGridLabeler,
    TileMeta, TileRow, TileSink, TileSource,
};
pub use sink::{
    read_manifest, read_spilled_label_image, temp_spill_dir, SpillFormat, SpillManifest, SpillSink,
};
