//! Fixture tests for the flow-aware rules: `location-leak` and `seed-flow`
//! run over a synthetic mini-workspace (anchor files mirroring the real
//! source/sanitizer/sink items plus a fixture crate per scenario), with
//! positive fixtures that must fire — including the full path witness — and
//! suppressed fixtures that must end quiet.
//!
//! Fixtures live under `tests/fixtures/flow/` which the workspace walker
//! skips, so the live lint run never sees them.

use privlocad_lint::allowlist::{apply_suppressions, parse_inline_allows};
use privlocad_lint::flow::{analyze, SymbolTable};
use privlocad_lint::lexer::lex;
use privlocad_lint::parser::{parse_file, ParsedFile};
use privlocad_lint::rules::{FileContext, Finding};

/// Anchor items shared by every scenario, placed at the same synthetic
/// paths the pattern model expects.
const ANCHORS: &[(&str, &str)] = &[
    ("crates/core/src/management.rs", include_str!("fixtures/flow/anchors_management.rs")),
    ("crates/core/src/protocol.rs", include_str!("fixtures/flow/anchors_protocol.rs")),
    ("crates/core/src/obfuscation.rs", include_str!("fixtures/flow/anchors_obfuscation.rs")),
    ("crates/core/src/fabric.rs", include_str!("fixtures/flow/anchors_fabric.rs")),
    ("crates/geo/src/rng.rs", include_str!("fixtures/flow/anchors_rng.rs")),
];

/// Parses the anchors plus one scenario fixture, runs the flow analysis,
/// then resolves the fixture's inline allows — the same pipeline `run()`
/// uses, minus the per-line rules.
fn flow_lint(rel_path: &str, src: &str) -> Vec<Finding> {
    let mut files: Vec<(&str, &str)> = ANCHORS.to_vec();
    files.push((rel_path, src));
    let parsed: Vec<ParsedFile> = files
        .iter()
        .map(|(rel, text)| parse_file(&FileContext::from_rel_path(rel), &lex(text)))
        .collect();
    let table = SymbolTable::build(&parsed);
    let mut findings = analyze(&table);
    let (allows, allow_findings) = parse_inline_allows(rel_path, &lex(src));
    findings.extend(allow_findings);
    let mut inline = vec![(rel_path.to_owned(), allows)];
    apply_suppressions(&mut findings, &mut inline, &mut [], "lint.allow");
    findings
}

fn active<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule && f.is_active()).collect()
}

fn assert_quiet(findings: &[Finding]) {
    let loud: Vec<String> = findings
        .iter()
        .filter(|f| f.is_active())
        .map(|f| format!("{}:{} {}: {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(loud.is_empty(), "expected a quiet fixture, got: {loud:?}");
}

#[test]
fn location_leak_fires_with_a_full_path_witness() {
    let path = "crates/core/src/fx_leak.rs";
    let findings = flow_lint(path, include_str!("fixtures/flow/location_leak.rs"));
    let leaks = active(&findings, "location-leak");
    assert_eq!(leaks.len(), 1, "{findings:?}");
    let f = leaks[0];
    assert_eq!(f.file, path);
    assert_eq!(f.line, 16, "finding must sit on the sink call");
    // The witness is the full call chain, file:line per hop: source
    // accessor → tainting helper → carrier → forwarding helper → sink.
    for hop in [
        "`LocationManager::top_set` (crates/core/src/management.rs:5)",
        "`Device::current` (crates/core/src/fx_leak.rs:7)",
        "`Device::handle` (crates/core/src/fx_leak.rs:16)",
        "`Device::ship` (crates/core/src/fx_leak.rs:11)",
        "`EdgeResponse::encode` (crates/core/src/protocol.rs:5)",
    ] {
        assert!(f.message.contains(hop), "missing hop {hop:?} in {:?}", f.message);
    }
}

#[test]
fn location_leak_is_quiet_when_sanitized_or_suppressed() {
    // The positive fixture's `served` path (source → candidates_for →
    // sink) must not fire: the sanitizer breaks the flow.
    let path = "crates/core/src/fx_leak.rs";
    let findings = flow_lint(path, include_str!("fixtures/flow/location_leak.rs"));
    assert!(
        !active(&findings, "location-leak").iter().any(|f| f.line > 19),
        "sanitized `served` path must stay quiet: {findings:?}"
    );

    let findings = flow_lint(path, include_str!("fixtures/flow/location_leak_suppressed.rs"));
    assert_quiet(&findings);
    assert!(findings.iter().any(|f| f.rule == "location-leak" && !f.is_active()));
}

#[test]
fn degraded_cache_sink_catches_unsanitized_inserts() {
    let path = "crates/core/src/fx_degraded.rs";
    let findings = flow_lint(path, include_str!("fixtures/flow/degraded_cache.rs"));
    let leaks = active(&findings, "location-leak");
    assert_eq!(leaks.len(), 1, "{findings:?}");
    let f = leaks[0];
    assert_eq!(f.file, path);
    assert_eq!(f.line, 12, "finding must sit on the poisoned cache write");
    // The witness walks from the true-location accessor into the cache.
    for hop in [
        "`LocationManager::top_set` (crates/core/src/management.rs:5)",
        "`StaleCache::insert` (crates/core/src/fabric.rs:5)",
    ] {
        assert!(f.message.contains(hop), "missing hop {hop:?} in {:?}", f.message);
    }
    // The `refresh` path runs the same top set through the obfuscation
    // boundary first — only released candidates reach the cache, so the
    // sanitized insert on line 18 must stay quiet.
    assert!(!leaks.iter().any(|f| f.line > 13), "{leaks:?}");
}

#[test]
fn degraded_cache_sink_is_quiet_when_suppressed() {
    let findings = flow_lint(
        "crates/core/src/fx_degraded.rs",
        include_str!("fixtures/flow/degraded_cache_suppressed.rs"),
    );
    assert_quiet(&findings);
    assert!(findings.iter().any(|f| f.rule == "location-leak" && !f.is_active()));
}

#[test]
fn seed_flow_fires_through_passthrough_chains() {
    let path = "crates/core/src/fx_seed.rs";
    let findings = flow_lint(path, include_str!("fixtures/flow/seed_flow.rs"));
    let seeds = active(&findings, "seed-flow");
    assert_eq!(seeds.len(), 2, "{findings:?}");
    // The literal fed through `Device::new` is caught two hops from the
    // constructor, with the passthrough chain as witness.
    let chained = seeds.iter().find(|f| f.line == 14).expect("literal-through-new finding");
    assert!(chained.message.contains("`Device::new` (crates/core/src/fx_seed.rs:7)"));
    assert!(chained.message.contains("`seeded` (crates/geo/src/rng.rs:6)"));
    assert!(chained.message.contains("`StdRng::seed_from_u64`"));
    // The direct literal is caught at the constructor itself.
    assert!(seeds.iter().any(|f| f.line == 15), "{seeds:?}");
    // The derive_seed and parameter-fed sites stay quiet (lines 12–13).
    assert!(!seeds.iter().any(|f| f.line < 14), "{seeds:?}");
}

#[test]
fn seed_flow_is_quiet_when_out_of_scope_or_suppressed() {
    // The same literals in a non-result-producing crate are out of scope.
    let findings =
        flow_lint("crates/lint/src/fx_seed.rs", include_str!("fixtures/flow/seed_flow.rs"));
    assert!(active(&findings, "seed-flow").is_empty(), "{findings:?}");

    let findings = flow_lint(
        "crates/core/src/fx_seed.rs",
        include_str!("fixtures/flow/seed_flow_suppressed.rs"),
    );
    assert_quiet(&findings);
    assert!(findings.iter().any(|f| f.rule == "seed-flow" && !f.is_active()));
}
