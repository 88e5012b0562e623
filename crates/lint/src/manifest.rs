//! Supply-chain manifest checks (`manifest-deps` rule).
//!
//! The build environment is offline: every external dependency must be
//! satisfied by a vendored stand-in under `compat/`. This module parses the
//! workspace manifests with a purpose-built TOML-lite reader and flags any
//! route by which a registry or git dependency could sneak in:
//!
//! * `[workspace.dependencies]` entries must be `path` dependencies that
//!   resolve to `crates/` (first-party) or `compat/` (vendored), and the
//!   path must exist on disk.
//! * Member manifests (`crates/*/Cargo.toml`, `compat/*/Cargo.toml`) may
//!   only declare dependencies via `workspace = true` or a `path`.

use std::fs;
use std::path::Path;

use crate::rules::Finding;

/// Checks the root manifest plus every member manifest under `crates/` and
/// `compat/`.
pub fn check_manifests(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    check_root_manifest(root, &mut out);
    for dir in ["crates", "compat"] {
        let Ok(entries) = fs::read_dir(root.join(dir)) else { continue };
        let mut members: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            let manifest = member.join("Cargo.toml");
            if manifest.is_file() {
                let rel = format!(
                    "{dir}/{}/Cargo.toml",
                    member.file_name().unwrap_or_default().to_string_lossy()
                );
                check_member_manifest(&manifest, &rel, &mut out);
            }
        }
    }
    out
}

fn push(out: &mut Vec<Finding>, file: &str, line: usize, message: String) {
    out.push(Finding {
        file: file.to_owned(),
        line,
        rule: "manifest-deps",
        message,
        suppressed: None,
    });
}

fn check_root_manifest(root: &Path, out: &mut Vec<Finding>) {
    let file = "Cargo.toml";
    let Ok(text) = fs::read_to_string(root.join(file)) else {
        push(out, file, 1, "workspace root Cargo.toml is unreadable".to_owned());
        return;
    };
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_toml_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.clone();
            continue;
        }
        if section != "[workspace.dependencies]" {
            continue;
        }
        let Some((name, spec)) = line.split_once('=') else { continue };
        let name = name.trim();
        let spec = spec.trim();
        if spec.contains("git =") || spec.contains("git=") {
            push(out, file, line_no, format!("dependency `{name}` uses a git source; only vendored compat/ paths are allowed"));
            continue;
        }
        if spec.contains("registry") {
            push(
                out,
                file,
                line_no,
                format!(
                    "dependency `{name}` names a registry; only vendored compat/ paths are allowed"
                ),
            );
            continue;
        }
        let Some(path) = extract_path(spec) else {
            push(out, file, line_no, format!("dependency `{name}` is not a path dependency; external crates must resolve to compat/"));
            continue;
        };
        if !(path.starts_with("crates/") || path.starts_with("compat/")) {
            push(
                out,
                file,
                line_no,
                format!("dependency `{name}` points outside crates/ and compat/ (`{path}`)"),
            );
            continue;
        }
        if !root.join(&path).join("Cargo.toml").is_file() {
            push(
                out,
                file,
                line_no,
                format!("dependency `{name}` path `{path}` does not resolve to a vendored crate"),
            );
        }
    }
}

fn check_member_manifest(manifest: &Path, rel: &str, out: &mut Vec<Finding>) {
    let Ok(text) = fs::read_to_string(manifest) else {
        push(out, rel, 1, "member manifest is unreadable".to_owned());
        return;
    };
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_toml_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.clone();
            continue;
        }
        let in_deps = matches!(
            section.as_str(),
            "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
        );
        // `[dependencies.foo]`-style tables: validate their keys directly.
        let in_dep_table = section.starts_with("[dependencies.")
            || section.starts_with("[dev-dependencies.")
            || section.starts_with("[build-dependencies.");
        if in_dep_table {
            if line.starts_with("git")
                || line.starts_with("registry")
                || line.starts_with("version")
            {
                push(out, rel, line_no, format!("dependency table `{section}` must use `workspace = true` or a `path`, not `{line}`"));
            }
            continue;
        }
        if !in_deps {
            continue;
        }
        let Some((name, spec)) = line.split_once('=') else { continue };
        let name = name.trim();
        let spec = spec.trim();
        let is_workspace = name.ends_with(".workspace")
            || spec.contains("workspace = true")
            || spec.contains("workspace=true");
        if is_workspace {
            continue;
        }
        if extract_path(spec).is_some() {
            continue;
        }
        push(out, rel, line_no, format!("dependency `{name}` must inherit from [workspace.dependencies] (`{name}.workspace = true`) or use a path"));
    }
}

/// Pulls `path = "…"` out of an inline-table dependency spec.
fn extract_path(spec: &str) -> Option<String> {
    let at = spec.find("path")?;
    let rest = &spec[at + "path".len()..];
    let rest = rest.trim_start().strip_prefix('=')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_owned())
}

/// Drops a `#`-comment unless the `#` sits inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_path_variants() {
        assert_eq!(extract_path(r#"{ path = "compat/rand" }"#).as_deref(), Some("compat/rand"));
        assert_eq!(
            extract_path(r#"{ path = "crates/geo", features = ["x"] }"#).as_deref(),
            Some("crates/geo")
        );
        assert_eq!(extract_path(r#"{ version = "1.0" }"#), None);
    }

    #[test]
    fn comment_stripping_respects_strings() {
        assert_eq!(strip_toml_comment(r#"a = "b#c" # tail"#), r#"a = "b#c" "#);
        assert_eq!(strip_toml_comment("# whole line"), "");
    }

    #[test]
    fn live_workspace_manifests_are_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = check_manifests(&root);
        assert!(
            findings.is_empty(),
            "unexpected manifest findings: {:?}",
            findings
                .iter()
                .map(|f| format!("{}:{} {}", f.file, f.line, f.message))
                .collect::<Vec<_>>()
        );
    }
}
