//! PAREMSP — the paper's parallel algorithm (§IV, Algorithm 7) — and the
//! repeated-pass parallel baseline of §II.

pub mod multipass_par;
pub mod paremsp;

pub use multipass_par::multipass_parallel;
pub use paremsp::{paremsp, paremsp_with, MergerKind, ParemspConfig, PhaseTimings};
