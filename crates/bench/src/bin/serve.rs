//! The serving-path benchmark driver.
//!
//! ```text
//! Usage: serve [options]
//!
//! Options:
//!   --users N        scale-stage fleet size (default 10000, up to 1000000);
//!                    the latency stages keep their fixed 64-user fleet
//!   --requests N     requests per measured iteration (default 8192)
//!   --batch N        requests drained per serving-loop wakeup (default 64)
//!   --seed N         master seed (default 0)
//!   --threads N      worker threads for the partitioned stage (default 2)
//!   --bench-json F   benchmark log to append serving rows to
//!                    (default BENCH_repro.json in the working directory)
//! ```
//!
//! The serving rows (latency stages plus the `serve/scale/{users}`
//! capacity rows) and the serving-path telemetry hub replace the `serve`
//! family in the benchmark log ([`privlocad_bench::ledger`]); every other
//! family's rows stay.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use privlocad_bench::ledger::{self, Header, Update};
use privlocad_bench::scale::{self, ScaleRow};
use privlocad_bench::serve::{self, Config, ServeRow};
use privlocad_lint::json::Json;

#[derive(Debug, Clone)]
struct Options {
    config: Config,
    scale: scale::Config,
    bench_json: PathBuf,
}

fn usage() -> &'static str {
    "usage: serve [--users N] [--requests N] [--batch N] [--seed N] [--threads N] \
     [--bench-json FILE]"
}

fn num(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, String> {
    let v = it.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} {v}"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        config: Config::default(),
        scale: scale::Config::default(),
        bench_json: PathBuf::from("BENCH_repro.json"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--users" => opts.scale.users = num(&mut it, "--users")?.max(1),
            "--requests" => opts.config.requests = num(&mut it, "--requests")?.max(1),
            "--batch" => opts.config.batch = num(&mut it, "--batch")?.max(1),
            "--seed" => {
                let seed = num(&mut it, "--seed")? as u64;
                opts.config.seed = seed;
                opts.scale.seed = seed;
            }
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

fn row_to_json(row: &ServeRow) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("name".to_owned(), Json::Str(row.name.clone()));
    obj.insert("wall_ms".to_owned(), Json::Num(row.wall_ms));
    obj.insert("requests_per_sec".to_owned(), Json::Num(row.requests_per_sec));
    obj.insert("batch".to_owned(), Json::Num(row.batch as f64));
    obj.insert("threads".to_owned(), Json::Num(row.threads as f64));
    Json::Obj(obj)
}

fn scale_row_to_json(row: &ScaleRow) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("name".to_owned(), Json::Str(row.name.clone()));
    obj.insert("wall_ms".to_owned(), Json::Num(row.wall_ms));
    obj.insert("users".to_owned(), Json::Num(row.users as f64));
    obj.insert("shards".to_owned(), Json::Num(row.shards as f64));
    obj.insert("bytes_per_user".to_owned(), Json::Num(row.bytes_per_user));
    obj.insert("image_bytes_per_user".to_owned(), Json::Num(row.image_bytes_per_user));
    obj.insert("checkpoint_encode_ms".to_owned(), Json::Num(row.checkpoint_encode_ms));
    obj.insert("recovery_ms".to_owned(), Json::Num(row.recovery_ms));
    obj.insert("per_shard_recovery_ms".to_owned(), Json::Num(row.per_shard_recovery_ms));
    obj.insert("digest".to_owned(), Json::Str(row.digest.clone()));
    Json::Obj(obj)
}

/// The `serve` family: latency rows, capacity rows, and the hub.
fn update(rows: &[ServeRow], scale_rows: &[ScaleRow], telemetry_json: String) -> Update {
    Update {
        rows: rows
            .iter()
            .map(row_to_json)
            .chain(scale_rows.iter().map(scale_row_to_json))
            .collect(),
        telemetry: vec![("serve".to_owned(), telemetry_json)],
    }
}

fn header(opts: &Options) -> Header<'static> {
    Header { experiment: "serve", seed: opts.config.seed, threads: opts.config.threads }
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
    let out = serve::run(&opts.config);
    print!("{}", out.table().render());
    if let Some(speedup) = out.batched_speedup() {
        println!(
            "\nbatched+cached vs legacy single-request path: {speedup:.1}x \
             (acceptance floor: 5x)"
        );
    }
    let snapshot = out.telemetry.registry().snapshot();
    let hits = snapshot.counter("edge.posterior_cache_hits").unwrap_or(0);
    let misses = snapshot.counter("edge.posterior_cache_misses").unwrap_or(0);
    println!("telemetry: posterior cache {hits} hits / {misses} misses over the serving profile");
    let scale_out = scale::run(&opts.scale);
    print!("\n{}", scale_out.table().render());
    let update = update(&out.rows, &scale_out.rows, out.telemetry.to_json());
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

    fn row(name: &str) -> ServeRow {
        ServeRow {
            name: name.to_owned(),
            wall_ms: 2.5,
            ns_per_request: 305.2,
            requests_per_sec: 3_276_800.0,
            batch: 64,
            threads: 1,
        }
    }

    fn scale_row(name: &str, users: usize) -> ScaleRow {
        ScaleRow {
            name: name.to_owned(),
            wall_ms: 25.0,
            users,
            shards: users.div_ceil(10_000),
            bytes_per_user: 644.0,
            image_bytes_per_user: 312.0,
            checkpoint_encode_ms: 4.0,
            recovery_ms: 9.0,
            per_shard_recovery_ms: 9.0,
            digest: "00f00ba900f00ba9".to_owned(),
        }
    }

    #[test]
    fn parses_defaults_and_overrides() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.config.users, 64);
        assert_eq!(o.scale.users, 10_000);
        assert_eq!(o.bench_json, PathBuf::from("BENCH_repro.json"));
        let o = parse_args(&args(
            "--users 8 --requests 512 --batch 32 --seed 9 --threads 4 --bench-json s.json",
        ))
        .unwrap();
        // --users drives the scale stage; the latency stages keep their
        // fixed 64-user fleet so their numbers stay comparable run to run.
        assert_eq!(o.scale.users, 8);
        assert_eq!((o.config.users, o.config.requests, o.config.batch), (64, 512, 32));
        assert_eq!((o.config.seed, o.scale.seed, o.config.threads), (9, 9, 4));
        assert_eq!(o.bench_json, PathBuf::from("s.json"));
        assert!(parse_args(&args("--wat")).unwrap_err().contains("unknown option"));
        assert!(parse_args(&args("--batch x")).unwrap_err().contains("bad --batch"));
    }

    #[test]
    fn fresh_log_carries_the_required_header() {
        let opts = parse_args(&args("--seed 5 --threads 3")).unwrap();
        let hub = privlocad_telemetry::Telemetry::new();
        let update = update(
            &[row("serve/single_cached")],
            &[scale_row("serve/scale/10000", 10_000)],
            hub.to_json(),
        );
        let doc = ledger::merge(None, &header(&opts), update).unwrap();
        validate_bench_report(&render(&doc)).expect("fresh log must validate");
    }
}
