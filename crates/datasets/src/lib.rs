//! # ccl-datasets
//!
//! Synthetic dataset suite and measurement harness for the PAREMSP
//! reproduction (Gupta et al., IPPS 2014).
//!
//! The paper evaluates on four image families — **Aerial**, **Texture**
//! and **Miscellaneous** from the USC-SIPI database (≤ 1 Mpixel) and
//! **NLCD** land-cover rasters from 12 MB up to 465.20 MB — all binarized
//! with MATLAB's `im2bw(level = 0.5)`. Those exact images are proprietary
//! /external data, so this crate generates synthetic
//! stand-ins that match the *structural* properties CCL cost depends on
//! (density, component count and shape, run statistics):
//!
//! * [`synth::blobs`] — random disk/ellipse fields (aerial object scenes),
//! * [`synth::texture`] — periodic and quasi-periodic textures,
//! * [`synth::shapes`] — mixed shape/document scenes (miscellaneous),
//! * [`synth::landcover`] — multi-octave value noise (NLCD-like regions),
//! * [`synth::noise`] — Bernoulli noise at controlled density,
//! * [`synth::adversarial`] — spiral/comb/checkerboard stress patterns.
//!
//! [`suite`] assembles them into the paper's four families with matched
//! sizes (Table III for NLCD, scalable via a `scale` factor), and
//! [`harness`] / [`stats`] / [`speedup`] / [`report`] provide the
//! measurement pipeline behind every table and figure in `ccl-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;
pub mod speedup;
pub mod stats;
pub mod suite;
pub mod synth;
