//! # paremsp
//!
//! Umbrella crate for the PAREMSP reproduction — *"A New Parallel Algorithm
//! for Two-Pass Connected Component Labeling"* (Gupta, Palsetia, Patwary,
//! Agrawal, Choudhary; IPPS 2014).
//!
//! This crate re-exports the six component crates under stable module
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
//! * [`stream`] — bounded-memory streaming labeling: row-band sources,
//!   the strip labeler with on-the-fly component analysis, and labeled
//!   strip output — gigapixel rasters in O(band) memory
//! * [`tiles`] — the 2-D generalization: tile-grid sources, the grid
//!   labeler (vertical *and* horizontal seam merges over a tile row),
//!   and spill-to-disk label output with a sidecar merge table — both
//!   input and output bounded by O(tile row)
//! * [`pipeline`] — prefetching source adapters (decode on a worker
//!   thread, bounded double buffer) and, stacked under a driver run with
//!   `pipelined: true`, a decode ∥ scan ∥ merge execution pipeline with
//!   bit-identical output
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
pub use ccl_pipeline as pipeline;
pub use ccl_stream as stream;
pub use ccl_tiles as tiles;
pub use ccl_unionfind as unionfind;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use ccl_core::analysis::{
        count_holes, count_holes_per_label, euler_number, keep_largest_component,
        region_properties, remove_small_components,
    };
    pub use ccl_core::label::LabelImage;
    pub use ccl_core::par::{multipass_parallel, paremsp, paremsp_with, MergerKind, ParemspConfig};
    pub use ccl_core::seq::{
        aremsp, arun, ccllrpc, cclremsp, contour_label, flood_fill_label, label_four_connectivity,
        label_grayscale, multipass, run_based,
    };
    pub use ccl_core::verify::{labelings_equivalent, verify_labeling};
    pub use ccl_core::Algorithm;
    pub use ccl_image::threshold::im2bw;
    pub use ccl_image::{BinaryImage, Connectivity, GrayImage, RgbImage};
    pub use ccl_pipeline::{PacedRows, PrefetchRows};
    pub use ccl_stream::{
        analyze_stream, label_stream, ComponentRecord, ComponentSink, CountComponents,
        MemorySource, OwnedMemorySource, RowSource, StreamStats, StripConfig, StripLabeler,
    };
    pub use ccl_tiles::{
        analyze_tiles, label_tiles, read_spilled_label_image, CollectTiles, GridSource,
        SpillFormat, SpillSink, TileGridConfig, TileGridLabeler, TileGridStats, TileRow,
        TileSource,
    };
}
