//! The OpenRTB-lite auction-pipeline benchmark driver.
//!
//! ```text
//! Usage: auction [options]
//!
//! Options:
//!   --users N        fleet size (default 64)
//!   --checkins N     check-ins replayed per user (default 160, 0 = full trace)
//!   --campaigns N    marketplace size (default 400)
//!   --kills N        worker kills per shard in the fault run (default 2)
//!   --seed N         master seed (default 0)
//!   --bench-json F   benchmark log to append the auction row to
//!                    (default BENCH_repro.json in the working directory)
//! ```
//!
//! The `auction/exchange` row and the exchange telemetry hub replace the
//! `auction` family in the benchmark log ([`privlocad_bench::ledger`]);
//! every other family's rows stay.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use privlocad_bench::auction::{self, AuctionRow, Config};
use privlocad_bench::ledger::{self, Header, Update};
use privlocad_lint::json::Json;

/// The codec gate: decode must cost less than this multiple of the
/// checksum walk it makes over each frame.
const DECODE_OVER_CHECKSUM_CEILING: f64 = 1.75;

#[derive(Debug, Clone)]
struct Options {
    config: Config,
    bench_json: PathBuf,
}

fn usage() -> &'static str {
    "usage: auction [--users N] [--checkins N] [--campaigns N] [--kills N] [--seed N] \
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
            "--checkins" => opts.config.checkins = num(&mut it, "--checkins")?,
            "--campaigns" => opts.config.campaigns = num(&mut it, "--campaigns")?.max(1),
            "--kills" => opts.config.kills = num(&mut it, "--kills")?.max(1),
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

fn row_to_json(row: &AuctionRow) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("name".to_owned(), Json::Str(row.name.clone()));
    obj.insert("wall_ms".to_owned(), Json::Num(row.wall_ms));
    obj.insert("auctions_per_sec".to_owned(), Json::Num(row.auctions_per_sec));
    obj.insert("decode_ns_per_req".to_owned(), Json::Num(row.decode_ns_per_req));
    obj.insert("serve_overhead_pct".to_owned(), Json::Num(row.serve_overhead_pct));
    obj.insert("decode_over_checksum".to_owned(), Json::Num(row.decode_over_checksum));
    obj.insert("revenue_micros".to_owned(), Json::Num(row.revenue_micros as f64));
    obj.insert("attack_success_live".to_owned(), Json::Num(row.attack_success_live));
    obj.insert("users".to_owned(), Json::Num(row.users as f64));
    obj.insert("requests".to_owned(), Json::Num(row.requests as f64));
    obj.insert("shards".to_owned(), Json::Num(row.shards as f64));
    obj.insert("digest".to_owned(), Json::Str(row.digest.clone()));
    Json::Obj(obj)
}

/// The `auction` family: the exchange row and its hub.
fn update(row: &AuctionRow, telemetry_json: String) -> Update {
    Update { rows: vec![row_to_json(row)], telemetry: vec![("auction".to_owned(), telemetry_json)] }
}

fn header(opts: &Options) -> Header<'static> {
    Header { experiment: "auction", seed: opts.config.seed, threads: 1 }
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
    let out = auction::run(&opts.config);
    print!("{}", out.table().render());
    println!(
        "\ndeterminism: exchange log {} across {} fleet runs ({})",
        if out.digests_agree() { "bit-identical" } else { "DIVERGED" },
        out.digests.len(),
        out.digests.iter().map(|(label, _)| label.as_str()).collect::<Vec<_>>().join(", "),
    );
    println!(
        "codec: decode {:.1} ns/req = {:.2}x the checksum walk (acceptance ceiling: \
         {DECODE_OVER_CHECKSUM_CEILING}x), {:.2}% of one request through a live shard",
        out.row.decode_ns_per_req, out.row.decode_over_checksum, out.row.serve_overhead_pct
    );
    println!(
        "attack: top-1 within 500 m off the live exchange log {:.1}%",
        out.row.attack_success_live * 100.0
    );
    if !out.digests_agree() {
        eprintln!("[bench] exchange logs diverged across fleet runs");
        return ExitCode::FAILURE;
    }
    if out.row.decode_over_checksum >= DECODE_OVER_CHECKSUM_CEILING {
        eprintln!(
            "[bench] codec gate failed: decode {:.2}x the checksum walk >= \
             {DECODE_OVER_CHECKSUM_CEILING}x",
            out.row.decode_over_checksum
        );
        return ExitCode::FAILURE;
    }
    let update = update(&out.row, out.telemetry.to_json());
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

    fn row() -> AuctionRow {
        AuctionRow {
            name: "auction/exchange".to_owned(),
            wall_ms: 900.0,
            auctions_per_sec: 250_000.0,
            decode_ns_per_req: 14.0,
            serve_overhead_pct: 1.2,
            decode_over_checksum: 1.3,
            revenue_micros: 123_456_789,
            attack_success_live: 0.02,
            users: 64,
            requests: 10_240,
            shards: 16,
            digest: "00f00ba900f00ba9".to_owned(),
        }
    }

    #[test]
    fn parses_defaults_and_overrides() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.config.users, 64);
        assert_eq!(o.bench_json, PathBuf::from("BENCH_repro.json"));
        let o = parse_args(&args(
            "--users 8 --checkins 50 --campaigns 90 --kills 3 --seed 9 --bench-json a.json",
        ))
        .unwrap();
        assert_eq!((o.config.users, o.config.checkins, o.config.campaigns), (8, 50, 90));
        assert_eq!((o.config.kills, o.config.seed), (3, 9));
        assert_eq!(o.bench_json, PathBuf::from("a.json"));
        assert!(parse_args(&args("--wat")).unwrap_err().contains("unknown option"));
        assert!(parse_args(&args("--users x")).unwrap_err().contains("bad --users"));
    }

    #[test]
    fn fresh_log_carries_the_required_header() {
        let opts = parse_args(&args("--seed 5")).unwrap();
        let hub = privlocad_telemetry::Telemetry::new();
        let doc = ledger::merge(None, &header(&opts), update(&row(), hub.to_json())).unwrap();
        validate_bench_report(&render(&doc)).expect("fresh log must validate");
    }
}
