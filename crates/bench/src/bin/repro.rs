//! The reproduction driver: one subcommand per paper table/figure.
//!
//! ```text
//! Usage: repro <experiment> [options]
//!
//! Experiments:
//!   fig2     7-day mobility pattern: semantics + transition inference
//!   fig3     location entropy vs check-ins
//!   fig4     de-obfuscation case study (week/month/year)
//!   fig6     attack success rates, one-time geo-IND vs Edge-PrivLocAd
//!   fig7     utilization rate across mechanisms
//!   fig8     minimal utilization rate at alpha = 0.9
//!   fig9     advertising efficacy vs n
//!   table2   obfuscation processing time vs users
//!   table3   output selection time vs users
//!   verify   Theorem 2 privacy verification across the parameter grid
//!   all      everything above, paper-style
//!
//! Options:
//!   --users N        population size, at least 1 (fig3/fig6)
//!   --trials N       Monte-Carlo trials per cell, at least 1 (fig7/fig8/fig9)
//!   --seed N         master seed (default 0)
//!   --threads N      worker threads for the parallel experiments
//!                    (fig7/fig8/fig9/table2/table3/verify; default 0 =
//!                    auto). Results are bit-for-bit identical for any
//!                    value — per-trial/per-user randomness is derived
//!                    from (seed, index), never from the thread layout —
//!                    so only the wall-clock changes.
//!   --theta M        attack connectivity threshold in meters (fig4)
//!   --full           paper-scale settings (37,262 users / 100k trials /
//!                    2k–32k edge users) — slow
//!   --no-trimming    ablation: disable Algorithm 1's trimming stage (fig6)
//!   --no-ablation    skip the uniform-selection ablation (fig9)
//!   --csv DIR        also write each table as CSV under DIR
//!   --bench-json F   benchmark log to record per-experiment wall-clock
//!                    timings in (default BENCH_repro.json in the working
//!                    directory); each experiment's row replaces its own
//!                    earlier row, every other row stays
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use privlocad_bench::ledger::{self, Header, Update};
use privlocad_bench::report::Table;
use privlocad_bench::{fig2, fig3, fig4, fig6, fig7, fig8, fig9, tables, verify};
use privlocad_lint::json::Json;

#[derive(Debug, Clone)]
struct Options {
    experiment: String,
    users: Option<usize>,
    trials: Option<usize>,
    seed: u64,
    threads: usize,
    theta: Option<f64>,
    full: bool,
    no_trimming: bool,
    no_ablation: bool,
    csv_dir: Option<PathBuf>,
    bench_json: PathBuf,
}

fn usage() -> &'static str {
    "usage: repro <fig2|fig3|fig4|fig6|fig7|fig8|fig9|table2|table3|verify|all> \
     [--users N] [--trials N] [--seed N] [--threads N] [--full] [--no-trimming] \
     [--no-ablation] [--csv DIR] [--bench-json FILE]"
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut it = args.iter();
    let experiment = it.next().ok_or_else(|| usage().to_string())?.clone();
    let mut opts = Options {
        experiment,
        users: None,
        trials: None,
        seed: 0,
        threads: 0,
        theta: None,
        full: false,
        no_trimming: false,
        no_ablation: false,
        csv_dir: None,
        bench_json: PathBuf::from("BENCH_repro.json"),
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--users" => {
                let v = it.next().ok_or("--users needs a value")?;
                opts.users = Some(positive(v).ok_or(format!("bad --users {v}"))?);
            }
            "--trials" => {
                let v = it.next().ok_or("--trials needs a value")?;
                opts.trials = Some(positive(v).ok_or(format!("bad --trials {v}"))?);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                opts.threads = v.parse().map_err(|_| format!("bad --threads {v}"))?;
            }
            "--theta" => {
                let v = it.next().ok_or("--theta needs a value (meters)")?;
                opts.theta = Some(v.parse().map_err(|_| format!("bad --theta {v}"))?);
            }
            "--full" => opts.full = true,
            "--no-trimming" => opts.no_trimming = true,
            "--no-ablation" => opts.no_ablation = true,
            "--csv" => {
                let v = it.next().ok_or("--csv needs a directory")?;
                opts.csv_dir = Some(PathBuf::from(v));
            }
            "--bench-json" => {
                let v = it.next().ok_or("--bench-json needs a file path")?;
                opts.bench_json = PathBuf::from(v);
            }
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

/// A population or trial count: a positive integer, since every
/// experiment needs at least one user or trial to report a rate.
fn positive(v: &str) -> Option<usize> {
    v.parse::<std::num::NonZeroUsize>().ok().map(std::num::NonZeroUsize::get)
}

/// One timed experiment for the machine-readable benchmark log.
#[derive(Debug, Clone)]
struct BenchEntry {
    name: String,
    wall_ms: f64,
    users: Option<usize>,
    trials: Option<usize>,
}

/// Collects per-experiment wall-clock timings for the benchmark log.
#[derive(Debug, Default)]
struct BenchLog {
    entries: Vec<BenchEntry>,
}

impl BenchLog {
    fn timed<F>(&mut self, name: &str, f: F)
    where
        F: FnOnce() -> (Option<usize>, Option<usize>),
    {
        let start = Instant::now();
        let (users, trials) = f();
        self.entries.push(BenchEntry {
            name: name.to_string(),
            wall_ms: start.elapsed().as_secs_f64() * 1_000.0,
            users,
            trials,
        });
    }

    fn rows(&self, opts: &Options) -> Vec<Json> {
        let opt = |v: Option<usize>| v.map_or(Json::Null, |n| Json::Num(n as f64));
        self.entries
            .iter()
            .map(|e| {
                let mut row = BTreeMap::new();
                row.insert("name".to_owned(), Json::Str(e.name.clone()));
                row.insert("wall_ms".to_owned(), Json::Num(e.wall_ms));
                row.insert("threads".to_owned(), Json::Num(opts.threads as f64));
                row.insert("users".to_owned(), opt(e.users));
                row.insert("trials".to_owned(), opt(e.trials));
                Json::Obj(row)
            })
            .collect()
    }

    /// Records the timings in the benchmark log, replacing only the rows
    /// of the experiments that ran. The log is auxiliary telemetry, not
    /// part of the experiment: a failed write warns and the run still
    /// succeeds.
    fn write(&self, opts: &Options) {
        let header =
            Header { experiment: &opts.experiment, seed: opts.seed, threads: opts.threads };
        let update = Update { rows: self.rows(opts), telemetry: Vec::new() };
        match ledger::write(&opts.bench_json, &header, update) {
            Ok(()) => println!("[bench] wrote {}", opts.bench_json.display()),
            Err(e) => eprintln!("[bench] failed to write {}: {e}", opts.bench_json.display()),
        }
    }
}

fn emit(table: &Table, opts: &Options, file: &str) {
    print!("{}", table.render());
    println!();
    if let Some(dir) = &opts.csv_dir {
        let path = dir.join(file);
        match table.write_csv(&path) {
            Ok(()) => println!("[csv] wrote {}", path.display()),
            Err(e) => eprintln!("[csv] failed to write {}: {e}", path.display()),
        }
    }
}

fn run_fig2(opts: &Options) -> (Option<usize>, Option<usize>) {
    let out = fig2::run(&fig2::Config { seed: opts.seed, ..fig2::Config::default() });
    emit(&out.table(), opts, "fig2.csv");
    println!(
        "paper: from a 7-day trace, top locations, semantics (home/office) and \
         mobility patterns 'are not difficult to infer'\n"
    );
    (None, None)
}

fn run_fig3(opts: &Options) -> (Option<usize>, Option<usize>) {
    let users = opts.users.unwrap_or(if opts.full { 37_262 } else { 2_000 });
    let out = fig3::run(&fig3::Config { users, seed: opts.seed, theta_m: 50.0 });
    emit(&out.table(), opts, "fig3.csv");
    println!(
        "paper: entropy declines with check-ins; 88.8% of users < 2. measured: {:.1}% < 2\n",
        100.0 * out.fraction_below_two
    );
    (Some(users), None)
}

fn run_fig4(opts: &Options) -> (Option<usize>, Option<usize>) {
    let mut config = fig4::Config { seed: opts.seed, ..fig4::Config::default() };
    if let Some(theta) = opts.theta {
        config.theta_m = theta;
    }
    let out = fig4::run(&config);
    emit(&out.table(), opts, "fig4.csv");
    println!("paper: ~200 m error after one week, <50 m after a full year\n");
    (None, None)
}

fn run_fig6(opts: &Options) -> (Option<usize>, Option<usize>) {
    let users = opts.users.unwrap_or(if opts.full { 37_262 } else { 500 });
    let out = fig6::run(&fig6::Config {
        users,
        seed: opts.seed,
        no_trimming: opts.no_trimming,
        ..fig6::Config::default()
    });
    emit(&out.table(), opts, "fig6.csv");
    emit(&out.interval_table(200.0), opts, "fig6_ci.csv");
    println!(
        "paper: one-time geo-IND leaks 75-93% of top-1 within 200 m; \
         Edge-PrivLocAd <1% within 200 m, ~5-6.8% within 500 m\n"
    );
    (Some(users), None)
}

fn run_fig7(opts: &Options) -> (Option<usize>, Option<usize>) {
    let trials = opts.trials.unwrap_or(if opts.full { 100_000 } else { 20_000 });
    let out = fig7::run(&fig7::Config {
        trials,
        seed: opts.seed,
        threads: opts.threads,
        ..fig7::Config::default()
    });
    emit(&out.table(), opts, "fig7.csv");
    println!("paper at n=10: n-fold ~100% UR, post-processing ~58%, plain composition ~20%\n");
    (None, Some(trials))
}

fn run_fig8(opts: &Options) -> (Option<usize>, Option<usize>) {
    let trials = opts.trials.unwrap_or(if opts.full { 100_000 } else { 20_000 });
    let out = fig8::run(&fig8::Config {
        trials,
        seed: opts.seed,
        threads: opts.threads,
        ..fig8::Config::default()
    });
    emit(&out.table(), opts, "fig8.csv");
    println!("paper: min UR grows with n (0.6 -> 0.9 for eps=1.5; ~+60% rel. for eps=1)\n");
    (None, Some(trials))
}

fn run_fig9(opts: &Options) -> (Option<usize>, Option<usize>) {
    let trials = opts.trials.unwrap_or(if opts.full { 100_000 } else { 20_000 });
    let out = fig9::run(&fig9::Config {
        trials,
        seed: opts.seed,
        threads: opts.threads,
        include_uniform_ablation: !opts.no_ablation,
        ..fig9::Config::default()
    });
    emit(&out.table(), opts, "fig9.csv");
    println!("paper: efficacy does not significantly decrease with n (output selection)\n");
    (None, Some(trials))
}

fn scalability_config(opts: &Options) -> tables::Config {
    let user_counts = if opts.full {
        vec![2_000, 4_000, 8_000, 16_000, 32_000]
    } else {
        vec![500, 1_000, 2_000, 4_000]
    };
    tables::Config { user_counts, seed: opts.seed, threads: opts.threads }
}

fn run_verify(opts: &Options) -> (Option<usize>, Option<usize>) {
    let out = verify::run(&verify::Config { threads: opts.threads, ..verify::Config::default() });
    emit(&out.table(), opts, "verify.csv");
    println!(
        "Section VI: sigma from Theorem 2 must achieve delta <= 0.01 at the \
         configured epsilon; the achieved delta is n-invariant because only \
         the sufficient statistic (the candidate mean) matters\n"
    );
    (None, None)
}

fn run_table2(opts: &Options) -> (Option<usize>, Option<usize>) {
    let config = scalability_config(opts);
    let users = config.user_counts.iter().copied().max();
    let out = tables::run_table2(&config);
    emit(&out.table(), opts, "table2.csv");
    println!("paper (RPi 3): 340 s @2k users -> 4,014 s @32k; target is ~linear scaling\n");
    (users, None)
}

fn run_table3(opts: &Options) -> (Option<usize>, Option<usize>) {
    let config = scalability_config(opts);
    let users = config.user_counts.iter().copied().max();
    let out = tables::run_table3(&config);
    emit(&out.table(), opts, "table3.csv");
    println!("paper (RPi 3): 90 ms @2k users -> 1,377 ms @32k; target is ~linear scaling\n");
    (users, None)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut log = BenchLog::default();
    match opts.experiment.as_str() {
        "fig2" => log.timed("fig2", || run_fig2(&opts)),
        "fig3" => log.timed("fig3", || run_fig3(&opts)),
        "fig4" => log.timed("fig4", || run_fig4(&opts)),
        "fig6" => log.timed("fig6", || run_fig6(&opts)),
        "fig7" => log.timed("fig7", || run_fig7(&opts)),
        "fig8" => log.timed("fig8", || run_fig8(&opts)),
        "fig9" => log.timed("fig9", || run_fig9(&opts)),
        "table2" => log.timed("table2", || run_table2(&opts)),
        "table3" => log.timed("table3", || run_table3(&opts)),
        "verify" => log.timed("verify", || run_verify(&opts)),
        "all" => {
            log.timed("verify", || run_verify(&opts));
            log.timed("fig2", || run_fig2(&opts));
            log.timed("fig3", || run_fig3(&opts));
            log.timed("fig4", || run_fig4(&opts));
            log.timed("fig6", || run_fig6(&opts));
            log.timed("fig7", || run_fig7(&opts));
            log.timed("fig8", || run_fig8(&opts));
            log.timed("fig9", || run_fig9(&opts));
            log.timed("table2", || run_table2(&opts));
            log.timed("table3", || run_table3(&opts));
        }
        other => {
            eprintln!("unknown experiment {other}\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    log.write(&opts);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_experiment_and_defaults() {
        let o = parse(&args("fig7")).unwrap();
        assert_eq!(o.experiment, "fig7");
        assert_eq!(o.seed, 0);
        assert_eq!(o.threads, 0);
        assert_eq!(o.users, None);
        assert_eq!(o.trials, None);
        assert_eq!(o.theta, None);
        assert!(!o.full && !o.no_trimming && !o.no_ablation);
        assert!(o.csv_dir.is_none());
        assert_eq!(o.bench_json, PathBuf::from("BENCH_repro.json"));
    }

    #[test]
    fn parses_all_options() {
        let o = parse(&args(
            "fig6 --users 2000 --trials 50000 --seed 9 --threads 4 --theta 75.5 --full \
             --no-trimming --no-ablation --csv out --bench-json bench.json",
        ))
        .unwrap();
        assert_eq!(o.users, Some(2_000));
        assert_eq!(o.trials, Some(50_000));
        assert_eq!(o.seed, 9);
        assert_eq!(o.threads, 4);
        assert_eq!(o.theta, Some(75.5));
        assert!(o.full && o.no_trimming && o.no_ablation);
        assert_eq!(o.csv_dir.as_deref(), Some(std::path::Path::new("out")));
        assert_eq!(o.bench_json, PathBuf::from("bench.json"));
    }

    #[test]
    fn missing_experiment_is_an_error() {
        assert!(parse(&[]).unwrap_err().contains("usage"));
    }

    #[test]
    fn bad_values_are_errors() {
        assert!(parse(&args("fig3 --users nope")).unwrap_err().contains("bad --users"));
        assert!(parse(&args("fig6 --users 0")).unwrap_err().contains("bad --users"));
        assert!(parse(&args("fig7 --trials 0")).unwrap_err().contains("bad --trials"));
        assert!(parse(&args("fig3 --seed -1")).unwrap_err().contains("bad --seed"));
        assert!(parse(&args("fig3 --trials")).unwrap_err().contains("needs a value"));
        assert!(parse(&args("fig3 --theta x")).unwrap_err().contains("bad --theta"));
        assert!(parse(&args("fig3 --threads x")).unwrap_err().contains("bad --threads"));
        assert!(parse(&args("fig3 --wat")).unwrap_err().contains("unknown option"));
    }

    #[test]
    fn bench_log_rows_carry_the_run_context() {
        let mut log = BenchLog::default();
        log.timed("fig7", || (None, Some(100)));
        log.timed("table2", || (Some(500), None));
        let opts = parse(&args("all --seed 3 --threads 2")).unwrap();
        let rows = log.rows(&opts);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("name").and_then(Json::as_str), Some("fig7"));
        assert_eq!(rows[0].get("trials").and_then(Json::as_num), Some(100.0));
        assert_eq!(rows[0].get("users"), Some(&Json::Null));
        assert_eq!(rows[1].get("users").and_then(Json::as_num), Some(500.0));
        assert_eq!(rows[1].get("threads").and_then(Json::as_num), Some(2.0));
    }

    #[test]
    fn verify_run_keeps_the_serving_rows() {
        let path =
            std::env::temp_dir().join(format!("privlocad-repro-{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{"experiment": "serve", "seed": 0, "threads": 2, "runs": [
                {"name": "serve/single_cached", "wall_ms": 2.5, "requests_per_sec": 3.0,
                 "batch": 1, "threads": 1},
                {"name": "verify", "wall_ms": 9.0, "threads": 0, "users": null, "trials": null}
            ]}"#,
        )
        .unwrap();
        let mut opts = parse(&args("verify")).unwrap();
        opts.bench_json = path.clone();
        let mut log = BenchLog::default();
        log.timed("verify", || (None, None));
        log.write(&opts);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let doc = privlocad_lint::json::parse(&text).unwrap();
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        let names: Vec<_> =
            runs.iter().filter_map(|r| r.get("name").and_then(Json::as_str)).collect();
        assert_eq!(
            names,
            ["serve/single_cached", "verify"],
            "one fresh verify row, serving row kept"
        );
        assert_ne!(runs[1].get("wall_ms").and_then(Json::as_num), Some(9.0));
    }
}
