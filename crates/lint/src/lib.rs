//! `privlocad-lint` — the workspace invariant linter.
//!
//! The reproduction's two load-bearing contracts are enforced here rather
//! than by reviewer vigilance:
//!
//! 1. **Determinism.** Every experiment result must be a pure function of
//!    the master seed (PR 1's `derive_seed` / `Fanout` contract). Wall-clock
//!    reads, OS-entropy RNGs and randomized iteration order all break it
//!    silently.
//! 2. **Privacy-parameter hygiene.** Theorem 2's noise calibration
//!    `σ = (√n·r/ε)·sqrt(ln(1/δ²)+ε)` is only sound for validated
//!    parameters, so mechanism parameter types must be built through their
//!    checked constructors.
//!
//! Plus supporting hygiene: panic-free library code in the proof-adjacent
//! crates, an auditable `unsafe` story, an offline supply chain, and no
//! public library surface that no program reaches ([`deadpub`]).
//!
//! The pass is a hand-rolled lexer ([`lexer`]) feeding a token-level rule
//! engine ([`rules`]) — deliberately not a full parser: every invariant here
//! is lexical, and a 5-second full-workspace budget rules out typeck-level
//! machinery. See `DESIGN.md` §10 for the rule catalogue, the suppression
//! policy, and how to add a rule.

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod deadpub;
pub mod flow;
pub mod json;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod report;
pub mod rules;
pub mod walk;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use allowlist::{
    apply_suppressions, flag_missing_files, parse_allowlist, parse_inline_allows, InlineAllow,
};
use report::Report;
use rules::{check_file, FileContext, Finding};

/// Name of the checked-in allowlist file at the workspace root.
const ALLOWLIST_FILE: &str = "lint.allow";

/// Runs the full lint pass over the workspace rooted at `root`.
///
/// Reads sources and manifests, applies every rule, resolves inline and
/// allowlist suppressions, and returns a sorted [`Report`]. IO errors on
/// individual files surface as findings rather than aborting the pass.
pub fn run(root: &Path) -> Report {
    let mut findings: Vec<Finding> = Vec::new();
    let mut inline: Vec<(String, Vec<InlineAllow>)> = Vec::new();
    let mut lexed_files: Vec<(FileContext, lexer::LexedFile)> = Vec::new();
    let mut scanned: BTreeSet<String> = BTreeSet::new();

    let sources = walk::rust_sources(root);
    let files_scanned = sources.len();
    for rel in &sources {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        match fs::read_to_string(root.join(rel)) {
            Ok(text) => {
                let lexed = lexer::lex(&text);
                let ctx = FileContext::from_rel_path(&rel_str);
                findings.extend(check_file(&ctx, &lexed));
                let (allows, allow_findings) = parse_inline_allows(&rel_str, &lexed);
                findings.extend(allow_findings);
                if !allows.is_empty() {
                    inline.push((rel_str.clone(), allows));
                }
                scanned.insert(rel_str);
                lexed_files.push((ctx, lexed));
            }
            Err(err) => findings.push(Finding {
                file: rel_str,
                line: 1,
                rule: "allow-syntax",
                message: format!("source file unreadable: {err}"),
                suppressed: None,
            }),
        }
    }

    // Flow phase: parse items, build the workspace symbol table, run the
    // cross-crate `location-leak` / `seed-flow` analyses. Timed because
    // check.sh gates on the wall time (`--flow-budget-ms`); the measurement
    // never feeds results, only the budget check and the BENCH row.
    // lint:allow(determinism-time): measuring the analysis phase itself is this rule's one sanctioned use; the reading gates CI wall-time, not experiment output
    let flow_start = std::time::Instant::now();
    let parsed: Vec<parser::ParsedFile> =
        lexed_files.iter().map(|(ctx, lexed)| parser::parse_file(ctx, lexed)).collect();
    let table = flow::SymbolTable::build(&parsed);
    let functions_indexed = table.len();
    findings.extend(flow::analyze(&table));
    let flow_analysis_ms = flow_start.elapsed().as_secs_f64() * 1e3;

    // Dead-pub phase: fleetbench is read for the names it uses, nothing else.
    let names_only: Vec<lexer::LexedFile> = walk::name_only_sources(root)
        .iter()
        .filter_map(|rel| fs::read_to_string(root.join(rel)).ok())
        .map(|text| lexer::lex(&text))
        .collect();
    findings.extend(deadpub::analyze(&lexed_files, &parsed, &names_only));

    findings.extend(manifest::check_manifests(root));

    let allowlist_text = fs::read_to_string(root.join(ALLOWLIST_FILE)).unwrap_or_default();
    let (mut entries, allowlist_findings) = parse_allowlist(ALLOWLIST_FILE, &allowlist_text);
    findings.extend(allowlist_findings);
    findings.extend(flag_missing_files(&mut entries, &scanned, ALLOWLIST_FILE));

    apply_suppressions(&mut findings, &mut inline, &mut entries, ALLOWLIST_FILE);

    let mut report = Report { files_scanned, flow_analysis_ms, functions_indexed, findings };
    report.sort();
    report
}
