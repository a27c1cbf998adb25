//! Stamps the binary with the compiler version and the source it measures:
//! the git commit when the repository is a git checkout, and always a
//! fingerprint of the measured crates' sources (a checkout exported without
//! `.git` still gets a comparable identity).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn output(cmd: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn sources(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            sources(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            files.push(path);
        }
    }
}

/// FNV-1a over the sorted relative paths and contents.
fn fingerprint(root: &Path, files: &[PathBuf]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    for f in files {
        eat(f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .as_bytes());
        eat(&fs::read(f).unwrap_or_default());
    }
    h
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf();
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let rustc_version = output(&rustc, &["--version"], &root).unwrap_or_else(|| "unknown".into());
    let commit = if root.join(".git").exists() {
        for watched in [".git/HEAD", ".git/refs/heads"] {
            println!("cargo:rerun-if-changed={}", root.join(watched).display());
        }
        output("git", &["rev-parse", "HEAD"], &root).unwrap_or_else(|| "unknown".into())
    } else {
        "none".into()
    };
    let mut files = Vec::new();
    for dir in [
        "crates/core/src",
        "crates/noise/src",
        "crates/serve/src",
        "crates/data/src",
    ] {
        sources(&root.join(dir), &mut files);
        println!("cargo:rerun-if-changed={}", root.join(dir).display());
    }
    for manifest in ["crates/core", "crates/noise", "crates/serve", "crates/data"] {
        files.push(root.join(manifest).join("Cargo.toml"));
    }
    files.sort();
    println!("cargo:rustc-env=GATE_RUSTC={rustc_version}");
    println!("cargo:rustc-env=GATE_COMMIT={commit}");
    println!(
        "cargo:rustc-env=GATE_SOURCE={:016x}",
        fingerprint(&root, &files)
    );
}
