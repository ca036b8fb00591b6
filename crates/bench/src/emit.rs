//! Machine-readable benchmark artifacts: `BENCH_<name>.json`.
//!
//! Every sweep writes its rows next to the rendered table, at the
//! workspace root, as `{"bench": "<name>", "rows": [...]}` with one object
//! per table row, field names matching the sweep's point struct. The files
//! are committed, and CI regenerates them and fails on any difference.

use serde::Serialize;
use std::path::{Path, PathBuf};

/// The workspace root (where the committed `BENCH_*.json` files live): the
/// nearest ancestor of this crate's manifest directory that holds a
/// `Cargo.lock`. Falls back to the current directory when the source tree
/// is not present at runtime (installed binaries).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|d| d.join("Cargo.lock").is_file())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Writes `BENCH_<name>.json` at the workspace root, regardless of the
/// invocation directory, and prints the path written. A failed write exits
/// the process with status 1: a run that leaves the committed file stale
/// must not pass as a regeneration.
pub fn emit_bench<T: Serialize>(name: &str, rows: &[T]) {
    let path = workspace_root().join(format!("BENCH_{name}.json"));
    let body = format!(
        "{{\"bench\":{},\"rows\":{}}}\n",
        serde_json::to_string(name).expect("bench name serializes"),
        serde_json::to_string(rows).expect("bench rows serialize"),
    );
    match std::fs::write(&path, body) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("{}: not written: {e}", path.display());
            std::process::exit(1);
        }
    }
}
