//! Fixture tests for the `dead-pub` rule, run over synthetic
//! mini-workspaces: each scenario is a handful of in-memory sources at the
//! workspace-relative paths the rule scopes by, plus the fleetbench sources
//! it reads for names only, put through the same lex → parse → analyze →
//! suppress pipeline `run()` uses.

use privlocad_lint::allowlist::{apply_suppressions, parse_allowlist, parse_inline_allows};
use privlocad_lint::deadpub::analyze;
use privlocad_lint::lexer::{lex, LexedFile};
use privlocad_lint::parser::{parse_file, ParsedFile};
use privlocad_lint::rules::{FileContext, Finding};

/// Runs the rule over `files` and the `fleetbench` sources, then resolves
/// the files' inline allows and the `allowlist` text.
fn dead_pub(files: &[(&str, &str)], fleetbench: &[&str], allowlist: &str) -> Vec<Finding> {
    let lexed: Vec<(FileContext, LexedFile)> =
        files.iter().map(|(rel, text)| (FileContext::from_rel_path(rel), lex(text))).collect();
    let parsed: Vec<ParsedFile> = lexed.iter().map(|(ctx, file)| parse_file(ctx, file)).collect();
    let names_only: Vec<LexedFile> = fleetbench.iter().map(|text| lex(text)).collect();
    let mut findings = analyze(&lexed, &parsed, &names_only);
    let mut inline = Vec::new();
    for (rel, file) in files.iter().map(|(rel, _)| rel).zip(&lexed) {
        let (allows, syntax) = parse_inline_allows(rel, &file.1);
        findings.extend(syntax);
        inline.push((rel.to_string(), allows));
    }
    let (mut entries, syntax) = parse_allowlist("lint.allow", allowlist);
    findings.extend(syntax);
    apply_suppressions(&mut findings, &mut inline, &mut entries, "lint.allow");
    findings
}

/// `file:line item` of every active finding of `rule`, in report order.
fn active(findings: &[Finding], rule: &str) -> Vec<String> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.is_active())
        .map(|f| {
            let item = f.message.split('`').nth(1).unwrap_or_default();
            format!("{}:{} {item}", f.file, f.line)
        })
        .collect()
}

#[test]
fn an_item_named_only_at_its_definition_is_a_finding() {
    let lib = "pub fn lonely() -> u32 {\n    7\n}\n\
               pub fn caller() -> u32 {\n    lonely()\n}\n\
               pub struct Grid;\n\
               impl Grid {\n    pub fn cell_size(&self) -> f64 {\n        1.0\n    }\n}\n";
    let example =
        "fn main() {\n    let _ = privlocad_geo::caller();\n    let _ = privlocad_geo::Grid;\n}\n";
    let findings =
        dead_pub(&[("crates/geo/src/grid.rs", lib), ("examples/demo.rs", example)], &[], "");
    // `lonely` is called from its own file only; `cell_size` nowhere.
    assert_eq!(
        active(&findings, "dead-pub"),
        [
            "crates/geo/src/grid.rs:1 pub fn lonely",
            "crates/geo/src/grid.rs:9 pub fn Grid::cell_size",
        ]
    );
}

#[test]
fn an_item_named_by_another_files_code_is_quiet() {
    let lib = "pub fn shared() {}\npub const LIMIT: usize = 3;\n";
    let other_lib = "use crate::grid::LIMIT;\nfn cap() -> usize {\n    LIMIT\n}\n";
    let binary = "fn main() {\n    privlocad_geo::shared();\n}\n";
    let findings = dead_pub(
        &[
            ("crates/geo/src/grid.rs", lib),
            ("crates/geo/src/cap.rs", other_lib),
            ("crates/geo/src/bin/tool.rs", binary),
        ],
        &[],
        "",
    );
    assert!(active(&findings, "dead-pub").is_empty(), "{findings:?}");
}

#[test]
fn an_item_named_only_by_fleetbench_is_quiet() {
    let files = [("crates/core/src/edge.rs", "pub fn with_per_user_streams() {}\n")];
    let fleetbench = "fn main() {\n    privlocad::with_per_user_streams();\n}\n";
    assert!(active(&dead_pub(&files, &[fleetbench], ""), "dead-pub").is_empty());
    // Without the benchmark's sources nothing names it.
    assert_eq!(
        active(&dead_pub(&files, &[], ""), "dead-pub"),
        ["crates/core/src/edge.rs:1 pub fn with_per_user_streams"]
    );
}

#[test]
fn an_item_named_only_by_tests_re_exports_or_docs_is_a_finding() {
    let lib = "/// Call [`tested`] from a doc test:\n\
               /// ```\n/// privlocad_geo::tested();\n/// ```\n\
               pub fn tested() {}\n\
               #[cfg(test)]\nmod tests {\n    #[test]\n    fn unit() {\n        super::tested();\n    }\n}\n";
    let root = "pub mod grid;\npub use grid::tested;\n";
    let sibling = "pub fn quiet() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        crate::grid::tested();\n    }\n}\n";
    let integration = "#[test]\nfn it() {\n    privlocad_geo::tested();\n}\n";
    let example = "fn main() {\n    privlocad_geo::quiet();\n}\n";
    let findings = dead_pub(
        &[
            ("crates/geo/src/grid.rs", lib),
            ("crates/geo/src/lib.rs", root),
            ("crates/geo/src/sibling.rs", sibling),
            ("crates/geo/tests/it.rs", integration),
            ("examples/demo.rs", example),
        ],
        &[],
        "",
    );
    assert_eq!(active(&findings, "dead-pub"), ["crates/geo/src/grid.rs:5 pub fn tested"]);
}

#[test]
fn a_type_named_in_a_sibling_pub_signature_or_field_is_quiet() {
    let lib = "pub struct Options;\n\
               pub fn configure(options: Options) -> Report {\n    Report { inner: Inner }\n}\n\
               pub struct Report {\n    pub inner: Inner,\n    hidden: Hidden,\n}\n\
               pub struct Inner;\npub struct Hidden;\n\
               pub struct Own;\n\
               impl Own {\n    pub fn new() -> Own {\n        Own\n    }\n}\n";
    let example = "fn main() {\n    privlocad_geo::configure(Default::default());\n    let _ = Other::new();\n}\n";
    let findings =
        dead_pub(&[("crates/geo/src/config.rs", lib), ("examples/demo.rs", example)], &[], "");
    // `Options` and `Report` sit in `configure`'s signature and `Inner` in
    // `Report`'s pub field. A private field keeps nothing, and a method's
    // signature does not keep its own impl type (`new` is named by the
    // example's `Other::new`).
    assert_eq!(
        active(&findings, "dead-pub"),
        [
            "crates/geo/src/config.rs:10 pub struct Hidden",
            "crates/geo/src/config.rs:11 pub struct Own"
        ]
    );
}

#[test]
fn suppressed_findings_are_quiet_and_stale_allows_are_reported() {
    let hooked = "// lint:allow(dead-pub): integration-test hook: tests/it.rs drives it\n\
                  pub fn hook() {}\n\
                  // lint:allow(dead-pub): stale — something names this now\n\
                  pub fn named() {}\n";
    let documented = "pub fn readme_api() {}\n";
    let example = "fn main() {\n    privlocad_geo::named();\n}\n";
    let allowlist = "crates/geo/src/api.rs | dead-pub | README-documented API\n\
                     examples/demo.rs | dead-pub | nothing here is library surface\n";
    let findings = dead_pub(
        &[
            ("crates/geo/src/hook.rs", hooked),
            ("crates/geo/src/api.rs", documented),
            ("examples/demo.rs", example),
        ],
        &[],
        allowlist,
    );
    assert!(active(&findings, "dead-pub").is_empty(), "{findings:?}");
    let suppressed: Vec<(&str, Option<&str>)> = findings
        .iter()
        .filter(|f| f.rule == "dead-pub")
        .map(|f| (f.file.as_str(), f.suppressed.as_deref()))
        .collect();
    assert_eq!(
        suppressed,
        [
            ("crates/geo/src/hook.rs", Some("integration-test hook: tests/it.rs drives it")),
            ("crates/geo/src/api.rs", Some("README-documented API")),
        ]
    );
    // The inline allow over a named item and the allowlist entry for a
    // file without findings both match nothing.
    let stale: Vec<(&str, usize)> = findings
        .iter()
        .filter(|f| f.rule == "unused-allow" && f.is_active())
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    assert_eq!(stale, [("crates/geo/src/hook.rs", 3), ("lint.allow", 2)]);
}
