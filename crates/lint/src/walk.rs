//! Deterministic discovery of the Rust sources the linter analyzes.
//!
//! Scope: `crates/*/{src,tests,benches}`, the root `src/`, `tests/` and
//! `examples/` trees. `compat/` shims are exempt (they mirror external API
//! surfaces we do not control) and `fixtures/` directories are skipped so
//! the linter's own deliberately-violating test inputs never count. Results
//! are sorted so diagnostics and reports are byte-stable across runs.

use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git"];

/// Returns every `.rs` file in scope, as paths relative to `root`, sorted.
pub fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut roots: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.filter_map(Result::ok) {
            for sub in ["src", "tests", "benches"] {
                let dir = entry.path().join(sub);
                if dir.is_dir() {
                    roots.push(dir);
                }
            }
        }
    }
    for top in ["src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            roots.push(dir);
        }
    }

    let mut files = Vec::new();
    for dir in roots {
        collect(&dir, &mut files);
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(Path::to_path_buf))
        .collect();
    rel.sort();
    rel
}

/// The sources read only for the names they use: the benchmark under
/// `fleetbench/src`, its own workspace, which no rule checks but whose
/// calls keep library items alive ([`crate::deadpub`]). Relative to `root`,
/// sorted.
pub fn name_only_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    collect(&root.join("fleetbench/src"), &mut files);
    files.into_iter().filter_map(|p| p.strip_prefix(root).ok().map(Path::to_path_buf)).collect()
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_walk_finds_known_files_and_skips_exempt_trees() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = rust_sources(&root);
        let names: Vec<String> =
            files.iter().map(|p| p.to_string_lossy().replace('\\', "/")).collect();
        assert!(names.iter().any(|n| n == "crates/geo/src/rng.rs"));
        assert!(names.iter().any(|n| n == "crates/lint/src/lexer.rs"));
        assert!(names.iter().any(|n| n == "tests/end_to_end.rs"));
        assert!(!names.iter().any(|n| n.starts_with("compat/")), "compat is exempt");
        assert!(!names.iter().any(|n| n.contains("fixtures/")), "fixtures are skipped");
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "walk order is deterministic");
    }
}
