//! `--bench-json` schema checks against checked-in fixtures: the serving
//! rows appended by `bench serve` must carry the full throughput triple
//! (`requests_per_sec`, `batch`, `threads`), and the validator must reject
//! reports that claim throughput without it, or a capacity row whose
//! resident state or checkpoint image is over the per-user budget.

use privlocad_lint::json::{parse, render, validate_bench_report};

const OK: &str = include_str!("fixtures/bench_serve_ok.json");
const BAD: &str = include_str!("fixtures/bench_serve_bad.json");
const OVER_BUDGET: &str = include_str!("fixtures/bench_scale_over_budget.json");
const IMAGE_OVER_BUDGET: &str = include_str!("fixtures/bench_scale_image_over_budget.json");

#[test]
fn serve_fixture_with_full_triple_passes() {
    validate_bench_report(OK).expect("ok fixture must validate");
}

#[test]
fn serve_fixture_missing_batch_and_threads_fails() {
    let err = validate_bench_report(BAD).unwrap_err();
    assert!(err.contains("serve/batched_cached/64"), "{err}");
    assert!(err.contains("batch") || err.contains("threads"), "{err}");
}

#[test]
fn scale_row_over_the_per_user_budget_fails() {
    // DESIGN.md §16 holds the scale profile to 1 KiB of resident state per
    // user; a row claiming more is refused, whatever else it gets right.
    let err = validate_bench_report(OVER_BUDGET).unwrap_err();
    assert!(err.contains("serve/scale/10000") && err.contains("per-user budget"), "{err}");
    validate_bench_report(&OVER_BUDGET.replace("1790", "644")).expect("644 B is within budget");
}

#[test]
fn scale_row_image_over_the_per_user_budget_fails() {
    // The checkpoint image is held to the same 1 KiB per user as the
    // resident state it restores.
    let err = validate_bench_report(IMAGE_OVER_BUDGET).unwrap_err();
    assert!(err.contains("image_bytes_per_user") && err.contains("per-user budget"), "{err}");
    validate_bench_report(&IMAGE_OVER_BUDGET.replace("1100", "312")).expect("312 B is within");
}

#[test]
fn fixtures_survive_a_parse_render_parse_cycle() {
    // `bench serve` appends rows by parsing the existing report, pushing
    // onto `runs`, and re-rendering — so render output must itself be a
    // valid report.
    let doc = parse(OK).unwrap();
    let rendered = render(&doc);
    assert_eq!(parse(&rendered).unwrap(), doc);
    validate_bench_report(&rendered).expect("rendered report must still validate");
}
