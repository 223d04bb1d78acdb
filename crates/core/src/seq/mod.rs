//! Sequential labeling algorithms (§III of the paper) plus reference
//! baselines.

pub mod contour;
pub mod flood;
pub mod multipass;
pub mod run_based;
pub mod two_pass;

pub use contour::contour_label;
pub use flood::{flood_fill_label, flood_fill_label_with};
pub use multipass::multipass;
pub use run_based::run_based;
pub use two_pass::{aremsp, arun, ccllrpc, cclremsp, two_pass_with, ScanStrategy};
