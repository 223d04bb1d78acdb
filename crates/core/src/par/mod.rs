//! PAREMSP — the paper's parallel algorithm (§IV, Algorithm 7) and its
//! supporting machinery.

pub mod multipass_par;
pub mod paremsp;
pub mod partition;
pub mod rayon_impl;

pub use multipass_par::multipass_parallel;
pub use paremsp::{paremsp, paremsp_with, MergerKind, ParemspConfig, PhaseTimings};
pub use partition::{partition_rows, Chunk};
pub use rayon_impl::paremsp_rayon;
