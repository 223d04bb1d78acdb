//! # ccl-core
//!
//! Connected component labeling algorithms — the primary contribution of
//! *"A New Parallel Algorithm for Two-Pass Connected Component Labeling"*
//! (Gupta et al., IPPS 2014).
//!
//! ## Sequential two-pass algorithms (§III)
//!
//! Every two-pass algorithm is a combination of a **scan strategy** and a
//! **label-equivalence structure**:
//!
//! | Algorithm | Scan (first pass) | Equivalence structure |
//! |-----------|-------------------|-----------------------|
//! | [`seq::ccllrpc`]  | decision tree (Alg. 4, Fig. 2) | link-by-rank + path compression |
//! | [`seq::cclremsp`] | decision tree | **RemSP** (Rem + splicing, Alg. 2) |
//! | [`seq::arun`]     | two-line scan (Alg. 6, Fig. 1b) | He's `rtable`/`next`/`tail` |
//! | [`seq::aremsp`]   | two-line scan | **RemSP** — the paper's best |
//!
//! The scan phases are generic over the structure (see [`scan`]), so every
//! combination can be benchmarked (the `ablation_unionfind` and
//! `ablation_scan` benches of `ccl-bench`). Reference labelers — BFS
//! flood fill ([`seq::flood_fill_label`]), the run-based two-scan of He
//! et al. ([`seq::run_based()`]) and the repeated-pass baseline
//! ([`seq::multipass()`]) — provide oracles and additional baselines.
//!
//! ## PAREMSP (§IV)
//!
//! [`par::paremsp()`] parallelizes AREMSP: the image rows are split into
//! even-height chunks, each thread scans its chunk into its own RemSP
//! (Alg. 7), the chunk stores are stitched into one dense label space,
//! chunk-boundary rows are merged with the parallel Rem's MERGER (Alg. 8,
//! or its CAS variant), and FLATTEN plus a parallel relabeling pass
//! produce the final labels. All phases are timed individually so
//! Figures 5a/5b can be reproduced.
//!
//! Outputs are [`label::LabelImage`]s with consecutive final labels
//! `1..=k`. Algorithms sharing a scan order produce bit-identical
//! buffers (which the tests assert); the one-line and two-line scan
//! families number components in different orders
//! ([`algorithm::Numbering`]), so cross-family comparisons go through
//! [`label::LabelImage::canonicalized`] or
//! [`verify::labelings_equivalent`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod analysis;
pub mod label;
pub mod par;
pub mod scan;
pub mod seq;
pub mod verify;

pub use algorithm::Algorithm;
pub use label::LabelImage;
