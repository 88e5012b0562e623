//! CLI entry point for `privlocad-lint`.
//!
//! ```text
//! privlocad-lint [--root DIR] [--json PATH] [--bench-json PATH]
//!                [--flow-budget-ms MS] [--bench-row PATH] [--list-rules] [--quiet]
//! ```
//!
//! Exits nonzero when any unsuppressed finding remains, a requested
//! `--bench-json` file fails validation, or the flow-analysis phase blows a
//! requested `--flow-budget-ms` budget, so `scripts/check.sh` can gate on it.
//! `--bench-row` appends (replacing any stale `lint/` rows) the flow
//! wall-time self-check row to an existing BENCH report.

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use privlocad_lint::{json, report::Report, rules, run};

struct Options {
    root: PathBuf,
    json_out: Option<PathBuf>,
    bench_json: Option<PathBuf>,
    flow_budget_ms: Option<f64>,
    bench_row: Option<PathBuf>,
    list_rules: bool,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        json_out: None,
        bench_json: None,
        flow_budget_ms: None,
        bench_row: None,
        list_rules: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => opts.root = take_value(&mut args, "--root")?.into(),
            "--json" => opts.json_out = Some(take_value(&mut args, "--json")?.into()),
            "--bench-json" => opts.bench_json = Some(take_value(&mut args, "--bench-json")?.into()),
            "--flow-budget-ms" => {
                let raw = take_value(&mut args, "--flow-budget-ms")?;
                let ms: f64 = raw
                    .parse()
                    .map_err(|e| format!("--flow-budget-ms `{raw}` is not a number: {e}"))?;
                if !ms.is_finite() || ms <= 0.0 {
                    return Err(format!("--flow-budget-ms must be a positive number, got {ms}"));
                }
                opts.flow_budget_ms = Some(ms);
            }
            "--bench-row" => opts.bench_row = Some(take_value(&mut args, "--bench-row")?.into()),
            "--list-rules" => opts.list_rules = true,
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: privlocad-lint [--root DIR] [--json PATH] [--bench-json PATH] \
                     [--flow-budget-ms MS] [--bench-row PATH] [--list-rules] [--quiet]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Merges the flow-analysis self-check row into an existing BENCH report:
/// parses the file, drops any stale `lint/` rows, appends the fresh one, and
/// writes the document back (keys sorted, values renderer-normalized) — the
/// same replace-on-rerun contract the bench binaries use for their rows.
fn merge_bench_row(path: &PathBuf, report: &Report) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let mut doc = json::parse(&text)?;
    let json::Json::Obj(map) = &mut doc else {
        return Err("top level is not an object".to_owned());
    };
    let Some(json::Json::Arr(runs)) = map.get_mut("runs") else {
        return Err("missing array key `runs`".to_owned());
    };
    runs.retain(|run| {
        !run.get("name")
            .and_then(json::Json::as_str)
            .is_some_and(|n| n == "lint" || n.starts_with("lint/"))
    });
    let mut row = std::collections::BTreeMap::new();
    row.insert("name".to_owned(), json::Json::Str("lint/flow_analysis_ms".to_owned()));
    row.insert("wall_ms".to_owned(), json::Json::Num(report.flow_analysis_ms));
    row.insert("flow_analysis_ms".to_owned(), json::Json::Num(report.flow_analysis_ms));
    row.insert("files_scanned".to_owned(), json::Json::Num(report.files_scanned as f64));
    row.insert("functions".to_owned(), json::Json::Num(report.functions_indexed as f64));
    runs.push(json::Json::Obj(row));
    let rendered = json::render(&doc);
    json::validate_bench_report(&rendered)?;
    fs::write(path, rendered + "\n").map_err(|e| format!("cannot write: {e}"))
}

fn take_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} requires a value"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("privlocad-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in rules::RULES {
            println!("{:18} {}", rule.name, rule.summary);
        }
        return ExitCode::SUCCESS;
    }

    let report = run(&opts.root);

    if let Some(path) = &opts.json_out {
        if let Err(err) = fs::write(path, report.render_json()) {
            eprintln!("privlocad-lint: cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }

    if !opts.quiet {
        print!("{}", report.render_text());
    }

    let mut failed = report.unsuppressed_count() > 0;

    if let Some(budget) = opts.flow_budget_ms {
        if report.flow_analysis_ms > budget {
            eprintln!(
                "privlocad-lint: flow analysis took {:.1} ms, over the {budget} ms budget",
                report.flow_analysis_ms
            );
            failed = true;
        } else if !opts.quiet {
            println!(
                "privlocad-lint: flow analysis {:.1} ms ({} functions), within the {budget} ms budget",
                report.flow_analysis_ms, report.functions_indexed
            );
        }
    }

    if let Some(path) = &opts.bench_row {
        match merge_bench_row(path, &report) {
            Ok(()) => {
                if !opts.quiet {
                    println!(
                        "privlocad-lint: wrote lint/flow_analysis_ms row to {}",
                        path.display()
                    );
                }
            }
            Err(err) => {
                eprintln!("privlocad-lint: cannot update {}: {err}", path.display());
                failed = true;
            }
        }
    }

    if let Some(path) = &opts.bench_json {
        match fs::read_to_string(path) {
            Ok(text) => match json::validate_bench_report(&text) {
                Ok(()) => {
                    if !opts.quiet {
                        println!("privlocad-lint: {} is a valid bench report", path.display());
                    }
                }
                Err(err) => {
                    eprintln!("privlocad-lint: {} is invalid: {err}", path.display());
                    failed = true;
                }
            },
            Err(err) => {
                eprintln!("privlocad-lint: cannot read {}: {err}", path.display());
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
