//! # ccl-pipeline
//!
//! A re-export shim that exists only for `perfbench`, which imports
//! [`PrefetchRows`] from it and may change only in a benchmark PR. The
//! prefetching adapters live in [`ccl_stream::prefetch`]; use that path
//! everywhere else. The benchmark PR of ROADMAP item 2 moves `perfbench`
//! onto it and deletes this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ccl_stream::PrefetchRows;
