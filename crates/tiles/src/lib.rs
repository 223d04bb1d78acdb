//! # ccl-tiles
//!
//! A re-export shim that exists only for `perfbench`, which imports these
//! names from it and may change only in a benchmark PR. The spill format
//! lives in [`ccl_stream::spill`] and the labeler in `ccl_stream`; the
//! four tile-grid names below are second names for `ccl_stream` types.
//! Use the `ccl_stream` names everywhere else. The benchmark PR of
//! ROADMAP item 2 moves `perfbench` onto them and deletes this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ccl_stream::{
    read_spilled_label_image, CollectTiles, GridSource, SpillFormat, SpillSink,
    StreamError as TilesError, StreamStats as TileGridStats, StripConfig as TileGridConfig,
    StripLabeler as TileGridLabeler, TileMeta, TileSink, TileSource,
};
