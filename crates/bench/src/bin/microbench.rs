//! The candidate-generation microbenchmark driver.
//!
//! ```text
//! Usage: microbench [options]
//!
//! Options:
//!   --users N        users closing a window per iteration (default 64)
//!   --tops N         top locations per user (default 2)
//!   --edges N        edge devices each set is installed on (default 32)
//!   --n N            candidates per set, the mechanism's n (default 24)
//!   --seed N         master seed of the derived streams (default 0)
//!   --bench-json F   benchmark log to append candidate-install rows to
//!                    (default BENCH_repro.json in the working directory)
//! ```
//!
//! The `candidate_install/...` rows and the install telemetry hub replace
//! the `candidate_install` family in the benchmark log
//! ([`privlocad_bench::ledger`]); every other family's rows stay.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use privlocad_bench::candgen::{self, CandidateRow, Config};
use privlocad_bench::ledger::{self, Header, Update};
use privlocad_lint::json::Json;

#[derive(Debug, Clone)]
struct Options {
    config: Config,
    bench_json: PathBuf,
}

fn usage() -> &'static str {
    "usage: microbench [--users N] [--tops N] [--edges N] [--n N] [--seed N] \
     [--bench-json FILE]"
}

fn num(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, String> {
    let v = it.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} {v}"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts =
        Options { config: Config::default(), bench_json: PathBuf::from("BENCH_repro.json") };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--users" => opts.config.users = num(&mut it, "--users")?.max(1),
            "--tops" => opts.config.tops = num(&mut it, "--tops")?.max(1),
            "--edges" => opts.config.edges = num(&mut it, "--edges")?.max(1),
            "--n" => opts.config.n = num(&mut it, "--n")?.max(1),
            "--seed" => opts.config.seed = num(&mut it, "--seed")? as u64,
            "--bench-json" => {
                let v = it.next().ok_or("--bench-json needs a file path")?;
                opts.bench_json = PathBuf::from(v);
            }
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn row_to_json(row: &CandidateRow) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("name".to_owned(), Json::Str(row.name.clone()));
    obj.insert("wall_ms".to_owned(), Json::Num(row.wall_ms));
    obj.insert("ns_per_op".to_owned(), Json::Num(row.ns_per_op));
    obj.insert("installs_per_sec".to_owned(), Json::Num(row.installs_per_sec));
    obj.insert("threads".to_owned(), Json::Num(row.threads as f64));
    if let Some(ratio) = row.ratio {
        obj.insert("ratio".to_owned(), Json::Num(ratio));
    }
    Json::Obj(obj)
}

/// The `candidate_install` family: the install rows and the hub.
fn update(rows: &[CandidateRow], telemetry_json: String) -> Update {
    Update {
        rows: rows.iter().map(row_to_json).collect(),
        telemetry: vec![("candidate_install".to_owned(), telemetry_json)],
    }
}

fn header(opts: &Options) -> Header<'static> {
    Header { experiment: "microbench", seed: opts.config.seed, threads: 1 }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let out = candgen::run(&opts.config);
    print!("{}", out.table().render());
    println!(
        "\ndeterminism: batched candidate streams match the scalar path bit-for-bit \
         across {} sets",
        out.pairs_verified
    );
    if let Some(speedup) = out.speedup() {
        println!("batched vs cold candidate install: {speedup:.1}x (acceptance floor: 4x)");
    }
    let snapshot = out.telemetry.registry().snapshot();
    let fresh = snapshot.counter("edge.fresh_candidate_sets").unwrap_or(0);
    let spends = out.telemetry.ledger().totals().candidate_sets;
    println!(
        "telemetry: {fresh} fresh candidate sets, {spends} ledger spends over the \
         install profile"
    );
    let update = update(&out.rows, out.telemetry.to_json());
    if let Err(e) = ledger::write(&opts.bench_json, &header(&opts), update) {
        eprintln!("[bench] {e}");
        return ExitCode::FAILURE;
    }
    println!("[bench] wrote {}", opts.bench_json.display());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_lint::json::{render, validate_bench_report};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn row(name: &str, ratio: Option<f64>) -> CandidateRow {
        CandidateRow {
            name: name.to_owned(),
            wall_ms: 1.5,
            ns_per_op: 420.0,
            installs_per_sec: 2_380_952.0,
            threads: 1,
            ratio,
        }
    }

    #[test]
    fn parses_defaults_and_overrides() {
        let o = parse_args(&[]).unwrap();
        assert_eq!((o.config.users, o.config.tops, o.config.edges, o.config.n), (64, 2, 32, 24));
        assert_eq!(o.bench_json, PathBuf::from("BENCH_repro.json"));
        let o =
            parse_args(&args("--users 8 --tops 3 --edges 4 --n 6 --seed 9 --bench-json m.json"))
                .unwrap();
        assert_eq!((o.config.users, o.config.tops, o.config.edges, o.config.n), (8, 3, 4, 6));
        assert_eq!(o.config.seed, 9);
        assert_eq!(o.bench_json, PathBuf::from("m.json"));
        assert!(parse_args(&args("--wat")).unwrap_err().contains("unknown option"));
        assert!(parse_args(&args("--edges x")).unwrap_err().contains("bad --edges"));
    }

    #[test]
    fn fresh_log_carries_the_required_header() {
        let opts = parse_args(&args("--seed 5")).unwrap();
        let hub = privlocad_telemetry::Telemetry::new();
        let update = update(&[row("candidate_install/batched", Some(5.0))], hub.to_json());
        let doc = ledger::merge(None, &header(&opts), update).unwrap();
        validate_bench_report(&render(&doc)).expect("fresh log must validate");
    }
}
