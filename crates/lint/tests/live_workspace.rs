//! The acceptance gate as a test: the lint pass over the real workspace must
//! come back with **zero unsuppressed findings**, and the checked-in
//! benchmark report must validate. This is the same invariant
//! `scripts/check.sh` enforces via the CLI, pinned here so `cargo test`
//! alone catches a regression.

use std::fs;
use std::path::{Path, PathBuf};

use privlocad_lint::{json, run};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn live_workspace_has_zero_unsuppressed_findings() {
    let report = run(&workspace_root());
    let loud: Vec<String> = report
        .unsuppressed()
        .map(|f| format!("{}:{} {}: {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(loud.is_empty(), "unsuppressed lint findings:\n{}", loud.join("\n"));
}

#[test]
fn live_workspace_scan_is_substantial() {
    let report = run(&workspace_root());
    // The walker must actually reach the crates: a path bug that silently
    // scanned nothing would also report zero findings.
    assert!(
        report.files_scanned > 100,
        "only {} files scanned; walker lost the workspace",
        report.files_scanned
    );
    // The burn-down left documented suppressions behind (bench timing,
    // spatial-hash maps, infallible expects); their disappearance means the
    // suppression resolution broke, not that the code got cleaner.
    assert!(report.suppressed_count() > 0, "expected documented suppressions to resolve");
    // Every suppressed finding carries its justification into the report.
    assert!(report.findings.iter().filter(|f| !f.is_active()).all(|f| !f
        .suppressed
        .as_deref()
        .unwrap_or("")
        .is_empty()));
}

#[test]
fn live_workspace_flow_analysis_is_clean_and_substantial() {
    let report = run(&workspace_root());
    // The privacy contract as a test: no unsuppressed source→sink path and
    // no literal-seeded RNG stream anywhere in the workspace.
    let loud: Vec<String> = report
        .unsuppressed()
        .filter(|f| f.rule == "location-leak" || f.rule == "seed-flow")
        .map(|f| format!("{}:{} {}: {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(loud.is_empty(), "active flow findings:\n{}", loud.join("\n"));
    // The symbol table must actually cover the workspace: an empty index
    // would also report zero findings.
    assert!(
        report.functions_indexed > 1000,
        "only {} functions indexed; the item parser lost the workspace",
        report.functions_indexed
    );
    // The burn-down left documented flow suppressions behind (the
    // checkpoint capture, the recovery placeholder seed); their
    // disappearance means flow suppression resolution broke.
    assert!(
        report
            .findings
            .iter()
            .any(|f| (f.rule == "location-leak" || f.rule == "seed-flow") && !f.is_active()),
        "expected documented flow suppressions to resolve"
    );
}

#[test]
fn live_workspace_has_no_unreached_pub_surface() {
    let report = run(&workspace_root());
    // Every pub library item is named by a program, fleetbench included,
    // or justified by the contract that keeps it.
    let loud: Vec<String> = report
        .unsuppressed()
        .filter(|f| f.rule == "dead-pub")
        .map(|f| format!("{}:{} {}", f.file, f.line, f.message))
        .collect();
    assert!(loud.is_empty(), "active dead-pub findings:\n{}", loud.join("\n"));
    // The justified items still fire and resolve: a scan that saw no pub
    // items would also report zero.
    let justified: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "dead-pub")
        .filter_map(|f| f.suppressed.as_deref())
        .collect();
    assert!(!justified.is_empty(), "expected justified dead-pub items to resolve");
    assert!(justified.iter().all(|why| {
        ["README-documented API", "integration-test hook", "public signature"]
            .iter()
            .any(|contract| why.starts_with(contract))
    }));
}

#[test]
fn live_json_report_parses_with_our_own_parser() {
    let report = run(&workspace_root());
    let doc = json::parse(&report.render_json()).expect("report JSON must parse");
    let active = doc.get("active").and_then(|v| v.as_num()).expect("active count");
    assert_eq!(active as usize, 0);
}

#[test]
fn checked_in_bench_report_validates() {
    let path = workspace_root().join("BENCH_repro.json");
    let text = fs::read_to_string(&path).expect("BENCH_repro.json must exist at the root");
    json::validate_bench_report(&text).expect("BENCH_repro.json must be a valid bench report");
}
