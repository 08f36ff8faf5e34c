//! Shared helpers for the DMT experiment binaries.
//!
//! Every `fig*` / `table*` binary in this crate regenerates one figure or table
//! of the paper (README, "Figure / table reproduction binaries"). Performance
//! is measured by the repo benchmark under `benchmark/`, not here. The binaries
//! share a tiny CLI convention:
//!
//! * `--quick` — run a reduced configuration (fewer seeds / steps / scales) suitable
//!   for CI; the default is the full configuration.
//! * results are printed as human-readable tables **and** written as JSON to
//!   `target/experiments/<name>.json` for later comparison.

#![deny(missing_docs)]

use serde::Serialize;
use std::path::PathBuf;

/// Returns true if `--quick` was passed on the command line.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Directory where experiment JSON results are written.
#[must_use]
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Serializes `value` to `target/experiments/<name>.json` and reports the path.
///
/// # Panics
///
/// Panics if serialization fails (results are plain data structures, so this indicates
/// a programming error rather than an I/O condition worth recovering from).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("experiment results serialize cleanly");
    if let Err(err) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {err}", path.display());
    } else {
        println!("\n[results written to {}]", path.display());
    }
}

/// Prints a section header for a table/figure reproduction.
pub fn header(title: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_dir_is_creatable() {
        let dir = experiments_dir();
        assert!(dir.ends_with("experiments"));
    }

    #[test]
    fn write_json_round_trips() {
        write_json("selftest", &vec![1, 2, 3]);
        let path = experiments_dir().join("selftest.json");
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains('1'));
    }
}
