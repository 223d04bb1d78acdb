//! # ccl-pipeline
//!
//! Prefetching + pipelined execution layer for the out-of-core labelers —
//! overlap band/tile **decode**, per-tile **scan** and seam **merge** so
//! no stage ever waits on another (the Gupta et al. speedup recipe —
//! keep every worker busy between phases — applied *across* phases).
//!
//! `stream_demo`/`tiles_demo` show that band and tile-row *generation*
//! dominates end-to-end throughput: the labeler sits idle while the next
//! band decodes, then the source sits idle while the band labels. This
//! crate closes that gap with two composable pieces:
//!
//! * [`PrefetchRows`] — the source adapter that moves the wrapped
//!   [`RowSource`](ccl_stream::RowSource) onto a worker thread and hands
//!   bands through a bounded double buffer (configurable depth,
//!   backpressure, clean shutdown on drop). It implements `RowSource`
//!   itself, so every driver composes unchanged — tile grids included: a
//!   tile row is a windowed band, so
//!   [`GridSource`](ccl_stream::GridSource)`::new(PrefetchRows::with_depth(src, th, depth), tw, th)`
//!   decodes tile rows one thread ahead.
//! * the **driver loop** in `ccl-stream` ([`ccl_stream::pipeline`]),
//!   which both [`label_stream`](ccl_stream::label_stream) and
//!   [`label_tiles`](ccl_stream::label_tiles) run; `pipelined: true` in
//!   their config makes unit *k + 1*'s scan overlap unit *k*'s seam
//!   merge / accumulation / spill, the carry row being the only
//!   dependency handed across a rendezvous.
//!
//! Stacked, they form a three-stage pipeline — decode ∥ scan ∥
//! merge/spill — with bit-identical output to the synchronous paths.
//! [`PacedRows`] completes the toolkit: a device-paced wrapper that
//! imposes a configurable per-pull latency (per tile row under a
//! `GridSource`), modelling the disk/network/sensor stalls that make real
//! decode generation-bound (and making the overlap win measurable on any
//! machine — hiding *latency* needs no spare core).
//!
//! Failures are typed, never hangs: a source error behind a prefetcher
//! surfaces as itself; a *panicking* stage — a source behind a
//! prefetcher, or the pipelined driver's scan stage — surfaces as
//! [`StreamError::Worker`](ccl_stream::StreamError::Worker) with the
//! panic message, strips and tile grids alike. The same error comes
//! back from [`PrefetchRows::into_inner`] after a panic.
//!
//! ## Example
//!
//! ```
//! use ccl_datasets::synth::stream::landcover_stream;
//! use ccl_datasets::synth::landcover::LandcoverParams;
//! use ccl_pipeline::PrefetchRows;
//! use ccl_stream::{analyze_stream, StripConfig};
//!
//! // fBm land cover is expensive to *generate*: prefetching decodes the
//! // next band while the labeler works on the current one.
//! let params = LandcoverParams { base_scale: 6.0, octaves: 3, persistence: 0.5 };
//! let source = landcover_stream(64, 512, params, 42);
//! let mut prefetched = PrefetchRows::new(source, 64);
//! let (components, stats) =
//!     analyze_stream(&mut prefetched, 64, StripConfig::default()).unwrap();
//! assert_eq!(stats.components as usize, components.len());
//! assert_eq!(stats.rows, 512);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paced;
pub mod prefetch_rows;

pub use paced::PacedRows;
pub use prefetch_rows::PrefetchRows;
