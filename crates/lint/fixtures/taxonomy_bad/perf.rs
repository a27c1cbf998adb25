//! Bench grid of the bad fixture tree. `GhostMechanism` is declared here
//! but no type of that name exposes an `_into` entry anywhere.

pub const MECHANISM_PATHS: [(&str, &[&str]); 2] = [
    ("BadMechanism", &["dyn", "scratch"]),
    ("GhostMechanism", &["dyn", "scratch"]),
];
