//! # ccl-tiles
//!
//! Out-of-core **2-D tile-grid** connected component labeling with
//! spill-to-disk label output — the second out-of-core stage of the
//! PAREMSP reproduction (Gupta et al., IPPS 2014), generalizing
//! `ccl-stream`'s 1-D row bands to a full tile grid.
//!
//! The strip labeler bounds memory by O(band) = O(image width × band
//! height). Tiles bound the *unit of work* by O(tile) instead: every tile
//! of the resident tile row is scanned independently (RemSP inside the
//! tile, PAREMSP across worker threads over the row — the scan stage
//! `ccl-stream` shares with the strip labeler, whose bands are tile rows
//! of column tiles), then connectivity is restored along **both** seam
//! orientations with the same `merge_seam` machinery — strided columns
//! for the vertical seams between adjacent tiles, the carried boundary
//! row for the horizontal seam (Komura's generalized label-equivalence
//! merge over an arbitrary block decomposition). Label slots recycle
//! after every tile row, keyed to the components still open on the carry
//! boundary, so arbitrarily tall images label in at most **two tile
//! rows** of resident memory.
//!
//! The crate pairs the bounded-memory *input* with bounded-memory
//! *output*: [`SpillSink`] writes each labeled tile to disk once (raw
//! little-endian `u32` or 16-bit PGM) with its emission-time ids, and
//! commits the spill on close by renaming a sidecar manifest into place.
//! A tile's raw samples resolve to components through the manifest's
//! merge table — so a gigapixel labeling run never holds more than a
//! tile row of pixels or labels.
//!
//! * [`TileSource`] / [`GridSource`] — pull-based [`TileRow`]s (a band
//!   plus its tile width; tiles are column spans of the band) windowed from
//!   any `ccl-stream` [`RowSource`](ccl_stream::RowSource);
//! * [`TileGridLabeler`] — the engine (see [`labeler`]);
//! * [`TileSink`] / [`CollectTiles`] / [`SpillSink`] — labeled-tile
//!   output, in memory or spilled ([`sink`]);
//! * [`label_tiles`] — the driver: pulls a whole source through the
//!   labeler, emitting components and, optionally, labeled tiles through
//!   a [`TileSink`] (collected in memory or spilled), run by the strip
//!   engine's driver loop ([`ccl_stream::pipeline`]); with
//!   [`TileGridConfig::pipelined`] row *k + 1*'s tile scans overlap row
//!   *k*'s seam merge / accumulation / spill on a worker thread:
//!   identical output, at most two tile rows + the carry row resident.
//!   A panicking stage surfaces as [`TilesError::Stream`] holding
//!   `StreamError::Worker`. [`analyze_tiles`] is the collect-the-records
//!   shorthand.
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

pub mod driver;
pub mod error;
pub mod labeler;
pub mod sink;
pub mod source;

pub use driver::{analyze_tiles, label_tiles};
pub use error::TilesError;
pub use labeler::{TileGridConfig, TileGridLabeler, TileGridStats};
pub use sink::{
    read_manifest, read_spilled_label_image, temp_spill_dir, CollectTiles, SpillFormat,
    SpillManifest, SpillSink, TileMeta, TileSink,
};
pub use source::{GridSource, TileRow, TileSource};
