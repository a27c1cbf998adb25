//! Bench grid of the fan-out fixture tree.

pub const MECHANISM_PATHS: [(&str, &[&str]); 1] = [("FannedOutMechanism", &["dyn", "scratch"])];
