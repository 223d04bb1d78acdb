//! # ccl-image
//!
//! Image substrate for the PAREMSP connected-component-labeling
//! reproduction (Gupta et al., IPPS 2014).
//!
//! The paper operates on *binary* images obtained from grayscale (or color)
//! inputs through MATLAB's `im2bw(level = 0.5)`. This crate provides every
//! piece of that pipeline, built from scratch:
//!
//! * [`BinaryImage`] — the 0/1 raster every labeling algorithm consumes,
//! * [`GrayImage`] / [`RgbImage`] — 8-bit grayscale and RGB rasters,
//! * [`threshold`] — `im2bw`-compatible fixed thresholding,
//! * [`io`] — Netpbm (PBM/PGM/PPM, ASCII and binary) readers and writers,
//! * [`runs`] — row run-length extraction (used by the run-based labeling
//!   baseline),
//! * [`connectivity`] — the 4-/8-connectedness definitions of §III.
//!
//! All rasters are row-major; pixel `(row, col)` of an `R × C` image lives
//! at linear index `row * C + col`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod connectivity;
pub mod error;
pub mod gray;
pub mod io;
pub mod rgb;
pub mod runs;
pub mod stats;
pub mod threshold;

pub use bitmap::BinaryImage;
pub use connectivity::Connectivity;
pub use error::ImageError;
pub use gray::GrayImage;
pub use rgb::RgbImage;
pub use runs::{Run, RunImage};
