//! Per-rule fixture tests: each rule has a positive fixture that must fire
//! and a suppressed fixture where a justified `lint:allow` (or, for the
//! unsafe audit, a `// SAFETY:` comment) silences it without leaving an
//! `unused-allow` behind.
//!
//! Fixtures live under `tests/fixtures/` which the workspace walker skips,
//! so the live lint run never sees them; they are loaded here with
//! `include_str!` and checked against synthetic in-scope paths.

use std::path::Path;

use privlocad_lint::allowlist::{apply_suppressions, parse_inline_allows};
use privlocad_lint::lexer::lex;
use privlocad_lint::manifest::check_manifests;
use privlocad_lint::rules::{check_file, FileContext, Finding};

/// Runs the full per-file pipeline (rules + inline allows + suppression
/// resolution, no allowlist file) over one fixture at a synthetic path.
fn lint(rel_path: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let ctx = FileContext::from_rel_path(rel_path);
    let mut findings = check_file(&ctx, &lexed);
    let (allows, allow_findings) = parse_inline_allows(rel_path, &lexed);
    findings.extend(allow_findings);
    let mut inline = vec![(rel_path.to_owned(), allows)];
    apply_suppressions(&mut findings, &mut inline, &mut [], "lint.allow");
    findings
}

fn active<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule && f.is_active()).collect()
}

/// The suppressed fixture must end fully quiet: no active finding of any
/// rule, including `allow-syntax` and `unused-allow`.
fn assert_quiet(findings: &[Finding]) {
    let loud: Vec<String> = findings
        .iter()
        .filter(|f| f.is_active())
        .map(|f| format!("{}:{} {}: {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(loud.is_empty(), "expected a quiet fixture, got: {loud:?}");
}

#[test]
fn determinism_time_fires_and_suppresses() {
    let findings = lint("crates/bench/src/fx.rs", include_str!("fixtures/determinism_time.rs"));
    assert_eq!(active(&findings, "determinism-time").len(), 2, "{findings:?}");

    let findings =
        lint("crates/bench/src/fx.rs", include_str!("fixtures/determinism_time_suppressed.rs"));
    assert_quiet(&findings);
    assert!(findings.iter().any(|f| f.rule == "determinism-time" && !f.is_active()));
}

#[test]
fn determinism_rng_fires_and_suppresses() {
    let findings = lint("crates/geo/src/fx.rs", include_str!("fixtures/determinism_rng.rs"));
    assert_eq!(active(&findings, "determinism-rng").len(), 3, "{findings:?}");

    let findings =
        lint("crates/geo/src/fx.rs", include_str!("fixtures/determinism_rng_suppressed.rs"));
    assert_quiet(&findings);
}

#[test]
fn determinism_seed_fires_in_scope_and_suppresses() {
    let src = include_str!("fixtures/determinism_seed.rs");
    let findings = lint("crates/bench/src/fx.rs", src);
    assert_eq!(active(&findings, "determinism-seed").len(), 1, "{findings:?}");

    // Out of scope: library crates may seed locally (their callers derive).
    let findings = lint("crates/geo/src/fx.rs", src);
    assert!(active(&findings, "determinism-seed").is_empty());

    let findings =
        lint("crates/bench/src/fx.rs", include_str!("fixtures/determinism_seed_suppressed.rs"));
    assert_quiet(&findings);
}

#[test]
fn order_stability_fires_and_suppresses() {
    let src = include_str!("fixtures/order_stability.rs");
    let findings = lint("crates/attack/src/fx.rs", src);
    // Two `use` lines plus the HashSet annotation in the function body.
    assert_eq!(active(&findings, "order-stability").len(), 3, "{findings:?}");

    // Out of scope: non-result-producing code (root tests/) is free to hash.
    let findings = lint("tests/fx.rs", src);
    assert!(active(&findings, "order-stability").is_empty());

    let findings =
        lint("crates/attack/src/fx.rs", include_str!("fixtures/order_stability_suppressed.rs"));
    assert_quiet(&findings);
}

#[test]
fn privacy_params_fires_and_suppresses() {
    let src = include_str!("fixtures/privacy_params.rs");
    let findings = lint("crates/mechanisms/src/fx.rs", src);
    assert_eq!(active(&findings, "privacy-params").len(), 2, "{findings:?}");

    // The params module itself is the one place literals are legitimate.
    let findings = lint("crates/mechanisms/src/params.rs", src);
    assert!(active(&findings, "privacy-params").is_empty());

    let findings =
        lint("crates/mechanisms/src/fx.rs", include_str!("fixtures/privacy_params_suppressed.rs"));
    assert_quiet(&findings);
}

#[test]
fn float_eq_fires_and_suppresses() {
    let findings = lint("crates/metrics/src/fx.rs", include_str!("fixtures/float_eq.rs"));
    assert_eq!(active(&findings, "float-eq").len(), 2, "{findings:?}");

    let findings =
        lint("crates/metrics/src/fx.rs", include_str!("fixtures/float_eq_suppressed.rs"));
    assert_quiet(&findings);
}

#[test]
fn panic_hygiene_fires_and_suppresses() {
    let src = include_str!("fixtures/panic_hygiene.rs");
    let findings = lint("crates/core/src/fx.rs", src);
    assert_eq!(active(&findings, "panic-hygiene").len(), 3, "{findings:?}");

    // Out of scope: the same code in a crate outside the panic-free set.
    let findings = lint("crates/bench/src/fx.rs", src);
    assert!(active(&findings, "panic-hygiene").is_empty());

    let findings =
        lint("crates/core/src/fx.rs", include_str!("fixtures/panic_hygiene_suppressed.rs"));
    assert_quiet(&findings);
}

#[test]
fn channel_hygiene_fires_and_suppresses() {
    let src = include_str!("fixtures/channel_hygiene.rs");
    let findings = lint("crates/core/src/fx.rs", src);
    assert_eq!(active(&findings, "channel-hygiene").len(), 2, "{findings:?}");

    // Out of scope: the same code outside the serving crates.
    let findings = lint("crates/lint/src/fx.rs", src);
    assert!(active(&findings, "channel-hygiene").is_empty());

    // The suppressed fixture lints at a bench path: bench is in the
    // channel-hygiene scope but outside the panic-free set, so the one
    // justified allow leaves the file fully quiet.
    let findings =
        lint("crates/bench/src/fx.rs", include_str!("fixtures/channel_hygiene_suppressed.rs"));
    assert_quiet(&findings);
    assert!(findings.iter().any(|f| f.rule == "channel-hygiene" && !f.is_active()));
}

#[test]
fn unsafe_audit_fires_and_safety_comment_satisfies_it() {
    let findings = lint("crates/geo/src/fx.rs", include_str!("fixtures/unsafe_audit.rs"));
    assert_eq!(active(&findings, "unsafe-audit").len(), 1, "{findings:?}");

    // A `// SAFETY:` comment is the fix, not a suppression: no allow needed.
    let findings =
        lint("crates/geo/src/fx.rs", include_str!("fixtures/unsafe_audit_suppressed.rs"));
    assert_quiet(&findings);
}

#[test]
fn crate_roots_must_forbid_unsafe() {
    let findings = lint("crates/geo/src/lib.rs", "pub fn f() {}\n");
    assert_eq!(active(&findings, "unsafe-audit").len(), 1, "{findings:?}");

    let findings = lint("crates/geo/src/lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n");
    assert_quiet(&findings);
}

#[test]
fn manifest_deps_fires_on_bad_fixture_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/manifest_bad");
    let findings = check_manifests(&root);
    assert!(findings.iter().all(|f| f.rule == "manifest-deps"));
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(findings.len(), 4, "{messages:?}");
    // Root manifest: bare version, git source, dangling path.
    assert!(messages.iter().any(|m| m.contains("`rand`") && m.contains("not a path")));
    assert!(messages.iter().any(|m| m.contains("`evil`") && m.contains("git source")));
    assert!(messages.iter().any(|m| m.contains("`missing`") && m.contains("does not resolve")));
    // Member manifest: a registry dependency smuggled into a vendored crate.
    assert!(messages
        .iter()
        .any(|m| m.contains("`sneaky`") && m.contains("workspace.dependencies")));
}

#[test]
fn unjustified_allow_is_an_allow_syntax_finding() {
    let src =
        "fn f(x: Option<u32>) -> u32 {\n    // lint:allow(panic-hygiene)\n    x.unwrap()\n}\n";
    let findings = lint("crates/core/src/fx.rs", src);
    assert_eq!(active(&findings, "allow-syntax").len(), 1, "{findings:?}");
    // The malformed allow suppresses nothing: the panic finding stays active.
    assert_eq!(active(&findings, "panic-hygiene").len(), 1);
}

#[test]
fn unknown_rule_in_allow_is_rejected() {
    let src = "// lint:allow(no-such-rule): because\nfn f() {}\n";
    let findings = lint("crates/core/src/fx.rs", src);
    assert_eq!(active(&findings, "allow-syntax").len(), 1, "{findings:?}");
}

#[test]
fn allow_matching_nothing_is_unused() {
    let src = "// lint:allow(panic-hygiene): provably fine\nfn f() {}\n";
    let findings = lint("crates/core/src/fx.rs", src);
    assert_eq!(active(&findings, "unused-allow").len(), 1, "{findings:?}");
}
