//! The chaos-harness driver: seeded fault injection over the supervised
//! serving path, with results appended to the benchmark log.
//!
//! ```text
//! Usage: chaos [options]
//!
//! Options:
//!   --users N        fleet size (default 8)
//!   --checkins N     check-ins per user before its window close (default 12)
//!   --requests N     ad requests per user after its window close (default 16)
//!   --kills N        injected worker crashes per shard (default 3)
//!   --corruptions N  corrupted frames injected per shard (default 8)
//!   --seed N         master seed (default 0)
//!   --threads N      upper shard count; scenarios run at 1 and N (default 2)
//!   --bench-json F   benchmark log to append chaos rows to
//!                    (default BENCH_repro.json in the working directory)
//! ```
//!
//! The chaos rows and their per-scenario telemetry hubs replace the
//! `chaos` family in the benchmark log ([`privlocad_bench::ledger`]);
//! every other family's rows stay. The harness itself
//! asserts the survival contract — byte-identical outputs versus the
//! fault-free run, zero candidate re-draws — so a successful exit *is*
//! the robustness check; the log rows record how much abuse it took.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use privlocad_bench::chaos::{self, ChaosRow, Config};
use privlocad_bench::ledger::{self, Header, Update};
use privlocad_lint::json::Json;

#[derive(Debug, Clone)]
struct Options {
    config: Config,
    bench_json: PathBuf,
}

fn usage() -> &'static str {
    "usage: chaos [--users N] [--checkins N] [--requests N] [--kills N] [--corruptions N] \
     [--seed N] [--threads N] [--bench-json FILE]"
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
            "--checkins" => opts.config.checkins = num(&mut it, "--checkins")?.max(1),
            "--requests" => opts.config.requests = num(&mut it, "--requests")?.max(1),
            "--kills" => opts.config.kills = num(&mut it, "--kills")?,
            "--corruptions" => opts.config.corruptions = num(&mut it, "--corruptions")?,
            "--seed" => opts.config.seed = num(&mut it, "--seed")? as u64,
            "--threads" => opts.config.threads = num(&mut it, "--threads")?.max(1),
            "--bench-json" => {
                let v = it.next().ok_or("--bench-json needs a file path")?;
                opts.bench_json = PathBuf::from(v);
            }
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn row_to_json(row: &ChaosRow) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("name".to_owned(), Json::Str(row.name.clone()));
    obj.insert("wall_ms".to_owned(), Json::Num(row.wall_ms));
    obj.insert("faults_injected".to_owned(), Json::Num(row.faults_injected as f64));
    obj.insert("requests_survived".to_owned(), Json::Num(row.requests_survived as f64));
    obj.insert("restarts".to_owned(), Json::Num(row.restarts as f64));
    obj.insert("recovery_ns".to_owned(), Json::Num(row.recovery_ns));
    obj.insert("duplicates_injected".to_owned(), Json::Num(row.duplicates_injected as f64));
    obj.insert("duplicates_suppressed".to_owned(), Json::Num(row.duplicates_suppressed as f64));
    obj.insert("breaker_transitions".to_owned(), Json::Num(row.breaker_transitions as f64));
    obj.insert("degraded_serves".to_owned(), Json::Num(row.degraded_serves as f64));
    obj.insert("deadline_misses".to_owned(), Json::Num(row.deadline_misses as f64));
    obj.insert("threads".to_owned(), Json::Num(row.threads as f64));
    Json::Obj(obj)
}

/// The `chaos` family: one row and one telemetry hub per scenario. Each
/// hub goes out in its seed-pure export: a scheduling-class counter (a
/// flood's overload rejections, say) depends on how the scenario's threads
/// interleave, and the restarts the scenarios assert are in their rows.
fn update(rows: &[ChaosRow]) -> Update {
    Update {
        rows: rows.iter().map(row_to_json).collect(),
        telemetry: rows
            .iter()
            .map(|row| (row.name.clone(), row.telemetry.deterministic_json()))
            .collect(),
    }
}

fn header(opts: &Options) -> Header<'static> {
    Header { experiment: "chaos", seed: opts.config.seed, threads: opts.config.threads }
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
    let out = chaos::run(&opts.config);
    print!("{}", out.table().render());
    let survived: u64 = out.rows.iter().map(|r| r.requests_survived).sum();
    let faults: u64 = out.rows.iter().map(|r| r.faults_injected).sum();
    println!(
        "\nsurvival contract held: {survived} requests served correctly under \
         {faults} injected faults, zero candidate re-draws"
    );
    let spends: u64 = out.rows.iter().map(|r| r.telemetry.ledger().totals().candidate_sets).sum();
    println!("privacy ledger audit: {spends} candidate-set spends recorded, zero double-spends");
    if let Err(e) = ledger::write(&opts.bench_json, &header(&opts), update(&out.rows)) {
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
    use privlocad_telemetry::{Determinism, SpendEvent, SpendKind};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn row(name: &str) -> ChaosRow {
        let telemetry = privlocad_telemetry::Telemetry::new();
        let top = privlocad_telemetry::top_key(1.0, 2.0);
        let kind = SpendKind::CandidateSet { top, epsilon: 1.0, delta: 1e-4, n: 10 };
        telemetry.ledger().record(SpendEvent { user: 1, kind });
        ChaosRow {
            name: name.to_owned(),
            wall_ms: 12.5,
            faults_injected: 9,
            requests_survived: 232,
            restarts: 3,
            recovery_ns: 18_400.0,
            duplicates_injected: 6,
            duplicates_suppressed: 6,
            breaker_transitions: 5,
            degraded_serves: 4,
            deadline_misses: 1,
            threads: 2,
            telemetry,
        }
    }

    #[test]
    fn parses_defaults_and_overrides() {
        let o = parse_args(&[]).unwrap();
        assert_eq!((o.config.users, o.config.kills, o.config.corruptions), (8, 3, 8));
        assert_eq!(o.bench_json, PathBuf::from("BENCH_repro.json"));
        let o = parse_args(&args(
            "--users 4 --checkins 6 --requests 5 --kills 2 --corruptions 3 --seed 9 \
             --threads 3 --bench-json c.json",
        ))
        .unwrap();
        assert_eq!((o.config.users, o.config.checkins, o.config.requests), (4, 6, 5));
        assert_eq!((o.config.kills, o.config.corruptions), (2, 3));
        assert_eq!((o.config.seed, o.config.threads), (9, 3));
        assert_eq!(o.bench_json, PathBuf::from("c.json"));
        assert!(parse_args(&args("--wat")).unwrap_err().contains("unknown option"));
        assert!(parse_args(&args("--kills x")).unwrap_err().contains("bad --kills"));
    }

    #[test]
    fn fresh_log_carries_the_required_header() {
        let opts = parse_args(&args("--seed 5 --threads 3")).unwrap();
        let doc =
            ledger::merge(None, &header(&opts), update(&[row("chaos/corruption/1")])).unwrap();
        validate_bench_report(&render(&doc)).expect("fresh log must validate");
    }

    /// A scenario's exported hub holds its deterministic counters and none
    /// of its scheduling-class ones, so one seed writes one export.
    #[test]
    fn telemetry_export_is_seed_pure() {
        let flood = row("chaos/flood/4");
        let registry = flood.telemetry.registry();
        registry.counter("server.requests", Determinism::Deterministic).add(12);
        registry.counter("server.overload_rejections", Determinism::Scheduling).add(2);
        let update = update(&[flood]);
        let (name, hub) = &update.telemetry[0];
        assert_eq!(name, "chaos/flood/4");
        assert!(hub.contains("\"server.requests\""), "{hub}");
        assert!(!hub.contains("server.overload_rejections"), "{hub}");
    }
}
