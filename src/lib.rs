//! # paremsp
//!
//! Umbrella crate for the PAREMSP reproduction — *"A New Parallel Algorithm
//! for Two-Pass Connected Component Labeling"* (Gupta, Palsetia, Patwary,
//! Agrawal, Choudhary; IPPS 2014).
//!
//! This crate re-exports the five component crates under stable module
//! names so applications need a single dependency:
//!
//! * [`image`] — binary/gray/RGB rasters, thresholding (`im2bw`), Netpbm
//!   I/O (one decoder for all seven encodings: incremental row bands,
//!   and whole-buffer readers that decode one band of every row)
//! * [`unionfind`] — REM's union-find with splicing plus every comparison
//!   variant, and the parallel mergers
//! * [`core`] — the labeling algorithms: CCLLRPC, CCLREMSP, ARUN, AREMSP
//!   (sequential) and PAREMSP (parallel)
//! * [`datasets`] — synthetic stand-ins for the paper's Aerial / Texture /
//!   Miscellaneous / NLCD datasets (whole-image and streamed), and the
//!   measurement harness
//! * [`stream`] — bounded-memory out-of-core labeling: row-band and
//!   tile-grid sources, the one labeler for strip bands and tile rows
//!   with on-the-fly component analysis, label output through a tile
//!   sink, spill-to-disk labels with a sidecar merge table
//!   ([`stream::spill`]) and prefetching source adapters
//!   ([`stream::prefetch`]) — gigapixel rasters with input and output
//!   bounded by O(band) or O(tile row); a driver run with
//!   `pipelined: true` over a prefetched source is a decode ∥ scan ∥
//!   merge pipeline with bit-identical output
//!
//! ## Quickstart
//!
//! ```
//! // Leading `::` disambiguates the crate from the `paremsp` *function*
//! // being imported out of it.
//! use ::paremsp::prelude::{aremsp, labelings_equivalent, paremsp, BinaryImage};
//!
//! // A small scene: three 8-connected components. (Rows separated by
//! // spaces — rustdoc treats lines *starting* with `#` specially.)
//! let img = BinaryImage::parse("##..## ##..## ...... .##...");
//!
//! // Label with the paper's best sequential algorithm…
//! let seq = aremsp(&img);
//! assert_eq!(seq.num_components(), 3);
//!
//! // …or in parallel with PAREMSP.
//! let par = paremsp(&img, 4);
//! assert_eq!(par.num_components(), 3);
//! assert!(labelings_equivalent(&seq, &par));
//! ```

pub use ccl_core as core;
pub use ccl_datasets as datasets;
pub use ccl_image as image;
pub use ccl_stream as stream;
pub use ccl_unionfind as unionfind;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use ccl_core::analysis::{count_holes, count_holes_per_label, region_properties};
    pub use ccl_core::label::LabelImage;
    pub use ccl_core::par::{multipass_parallel, paremsp, paremsp_with, MergerKind, ParemspConfig};
    pub use ccl_core::seq::{
        aremsp, arun, ccllrpc, cclremsp, contour_label, flood_fill_label, multipass, run_based,
    };
    pub use ccl_core::verify::{labelings_equivalent, verify_labeling};
    pub use ccl_core::Algorithm;
    pub use ccl_image::threshold::im2bw;
    pub use ccl_image::{BinaryImage, Connectivity, GrayImage, RgbImage};
    pub use ccl_stream::{
        analyze_stream, analyze_tiles, label_stream, label_tiles, read_spilled_label_image,
        CollectTiles, ComponentRecord, ComponentSink, CountComponents, GridSource, MemorySource,
        PacedRows, PrefetchRows, RowSource, SpillFormat, SpillSink, StreamStats, StripConfig,
        StripLabeler, TileRow, TileSource,
    };
}
