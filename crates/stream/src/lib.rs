//! # ccl-stream
//!
//! Bounded-memory streaming/tiled connected component labeling with
//! on-the-fly component analysis — the out-of-core extension of the
//! PAREMSP reproduction (Gupta et al., IPPS 2014).
//!
//! PAREMSP labels an image by scanning disjoint chunks with disjoint
//! provisional-label ranges and merging only the chunk boundaries.
//! That structure is exactly what *out-of-core* labeling needs: when row
//! bands arrive one at a time (a file being decoded, a sensor scanning, a
//! generator producing), each band is a chunk, the boundary merge happens
//! once per band seam, and everything behind the seam can be retired.
//! This crate turns that observation into a pipeline that labels rasters
//! of unbounded height in **O(band) memory**:
//!
//! * [`RowSource`] — pull-based supplier of row bands, with adapters for
//!   in-memory images ([`MemorySource`]), incremental Netpbm files
//!   ([`PbmSource`], [`PgmSource`] — PGM binarized band-wise with the
//!   paper's `im2bw`) and the streamed `ccl-datasets` generators
//!   ([`generators`]); [`TileSource`] / [`GridSource`] window any of
//!   them into [`TileRow`]s, a band cut into column tiles;
//! * [`StripLabeler`] — the one engine, for strip bands and tile rows:
//!   each unit's column tiles (a tile row's tiles, or one span of a strip
//!   band per thread) are scanned in place with the two-line scan + RemSP,
//!   concurrently with [`StripConfig::parallel`], and stitched along the
//!   vertical seams ([`scan`]), plus one carried boundary row per unit
//!   seam ([`carry`]) and label-slot recycling so closed components cost
//!   nothing;
//! * [`ComponentRecord`] / [`ComponentSink`] — per-component area,
//!   bounding box, centroid, raster anchor, 4-neighbourhood perimeter
//!   and Euler-characteristic hole count, emitted the moment a
//!   component closes, **without ever materializing a label image**
//!   (following Lemaitre & Lacassagne's on-the-fly analysis);
//! * [`TileSink`] — optional label output, one [`TileMeta`]-placed tile
//!   at a time (a strip band is one full-width tile) plus the id merges;
//!   [`CollectTiles`] reconciles them into a label image, and the
//!   `ccl-tiles` spill format writes them to disk;
//! * [`label_stream`] / [`label_tiles`] — the drivers: pull a whole row
//!   or tile source through the labeler, emitting components and,
//!   optionally, labels, run by one driver loop ([`pipeline`]);
//!   [`StripConfig::pipelined`] overlaps unit *k + 1*'s scan with unit
//!   *k*'s merge. [`analyze_stream`] / [`analyze_tiles`] are the
//!   collect-the-records shorthands. Every failure, a panicking stage
//!   included, is one [`StreamError`].
//!
//! ## Example
//!
//! ```
//! use ccl_datasets::synth::stream::bernoulli_stream;
//! use ccl_stream::{analyze_stream, StripConfig};
//!
//! // A 64 × 4096 noise raster streamed in 64-row bands: the labeler
//! // never holds more than 65 pixel rows.
//! let mut source = bernoulli_stream(64, 4096, 0.3, 42);
//! let (components, stats) =
//!     analyze_stream(&mut source, 64, StripConfig::default()).unwrap();
//! assert_eq!(stats.components as usize, components.len());
//! assert!(stats.peak_resident_rows <= 65);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod carry;
pub mod driver;
pub mod error;
pub mod generators;
pub mod labeler;
pub mod netpbm;
pub mod pipeline;
pub mod scan;
pub mod source;

pub use analysis::{
    Accum, CollectTiles, ComponentId, ComponentRecord, ComponentSink, CountComponents, TileMeta,
    TileSink,
};
pub use driver::{analyze_stream, analyze_tiles, label_stream, label_tiles};
pub use error::StreamError;
pub use labeler::{StreamStats, StripConfig, StripLabeler};
pub use netpbm::{PbmSource, PgmSource};
pub use source::{GridSource, MemorySource, OwnedMemorySource, RowSource, TileRow, TileSource};
