//! `fleetbench`: the Edge-PrivLocAd fleet benchmark.
//!
//! ```text
//! fleetbench --workload <steady_ads|trace_replay|faulty_fabric> --seed N
//!            --seconds S --trace <0|1> [--corrupt-reference]
//! ```
//!
//! One process sets up the live stack (synthetic traces → router → edge
//! servers → devices → commit → bid sink), drives the workload's seeded
//! operation list through it from two closed-loop clients, settles the
//! emitted bids through a fresh marketplace, and checks every output
//! against an in-process reference replay. `--trace 1` adds the per-layer
//! replay. The report goes to stdout; its last line is one JSON object
//! with the run's metrics. See `fleetbench/README.md`.

mod fleet;
mod host;
mod layers;
mod oracle;
mod report;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use privlocad::protocol::ClientRequest;
use privlocad_telemetry::Telemetry;

use crate::fleet::{run_phase, Digests, Finished, Fleet, Lane, PhaseRun, Sample};
use crate::oracle::{settled_shards, Check, Market, Observed};
use crate::report::{median, percentile, Metric};
use crate::workload::{Generated, Kind, OpKind, Spec, SHARDS};

/// Set-ups per run; `setup_s` is their median. Each runs in a fresh
/// process and is timed from that process's start, so every one is cold.
/// Shorter set-ups are repeated more often: a 0.1 s set-up swings with
/// process and thread start-up alone.
fn setups(kind: Kind) -> usize {
    match kind {
        Kind::SteadyAds => 3,
        Kind::TraceReplay => 9,
        Kind::FaultyFabric => 5,
    }
}
/// Rounds of the timed phase. `ops_per_s`, `cpu_us_per_op` and the p50
/// latencies are medians over the rounds, so a spell of host noise that
/// disturbs one round does not move the run's figure.
const ROUNDS: usize = 8;
/// Timed settles of the emitted bids per run; `settle_per_s` is the
/// fastest. Each pass is the same deterministic single-threaded work, so
/// host noise can only slow a pass down.
const SETTLES: usize = 3;
/// In-budget worker kills per shard on `faulty_fabric`.
const KILLS_PER_SHARD: u64 = 3;

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    corrupt_reference: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut corrupt_reference = false;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed".to_owned())?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|_| "bad --seconds".to_owned())?)
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other}")),
                }
            }
            "--corrupt-reference" => corrupt_reference = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        corrupt_reference,
        setup_only,
    })
}

/// Keeps the supervisor's injected-fault panics (caught and recovered by
/// design) off stderr; every other panic still reports.
fn quiet_injected_faults() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.contains("injected fault") {
            previous(info);
        }
    }));
}

/// The benchmark's own side of a run, built before the fleet and kept
/// until the run ends: the workload, the clients' lanes, the per-user
/// digests and the marketplace.
struct Inputs {
    generated: Generated,
    /// `faulty_fabric` settles through the fabric itself: its settle
    /// operations and their lanes (empty on the other workloads).
    settle_ops: Vec<ClientRequest>,
    settle_lanes: Vec<Lane>,
    lanes: Vec<Lane>,
    digests: Digests,
    market: Market,
}

impl Inputs {
    fn new(spec: &Spec) -> Inputs {
        let generated = spec.generate();
        let settle_ops = if spec.kind == Kind::FaultyFabric {
            generated.settle_ops()
        } else {
            Vec::new()
        };
        Inputs {
            settle_lanes: fleet::lanes(spec, &settle_ops),
            lanes: fleet::lanes(spec, &generated.ops),
            digests: Digests::new(spec.users),
            market: Market::new(spec),
            settle_ops,
            generated,
        }
    }
}

/// A fleet ready for its timed phase.
struct Ready {
    inputs: Inputs,
    fleet: Fleet,
    /// Resident memory once the inputs were built and before the fleet
    /// was, in MiB: the benchmark's own share.
    base_rss_mb: f64,
    /// Why `VmHWM` could not be reset at the base, if it could not.
    reset_error: Option<String>,
}

/// One full set-up: traces, operation list and marketplace, then fleet
/// spawn and settling.
fn set_up(spec: &Spec) -> Ready {
    let mut inputs = Inputs::new(spec);
    let base_rss_mb = host::rss_mb();
    let reset_error = host::reset_peak_rss().err().map(|e| e.to_string());
    let fleet = match spec.kind {
        Kind::SteadyAds => {
            // Settle in process and hand each shard its checkpoint: the
            // restore path is part of set-up. The settle spent budget, so
            // its ledger events go to the fleet's hub, or the audit would
            // find unrecorded sets.
            let hub = Telemetry::new();
            let checkpoints = settled_shards(spec, &inputs.generated.settle, &hub)
                .iter()
                .map(|d| Some(d.checkpoint()))
                .collect();
            Fleet::direct(spec, hub, checkpoints)
        }
        Kind::TraceReplay => Fleet::direct(spec, Telemetry::new(), vec![None; SHARDS]),
        Kind::FaultyFabric => {
            let fleet = Fleet::faulty(
                spec,
                &inputs.settle_ops,
                &inputs.generated.ops,
                KILLS_PER_SHARD,
            );
            let settled = run_phase(
                &fleet.front,
                spec,
                &inputs.settle_ops,
                &mut inputs.settle_lanes,
                1,
                &mut inputs.digests,
            );
            assert_eq!(
                settled.failed, 0,
                "settling through the fabric failed: {:?}",
                settled.errors
            );
            fleet
        }
    };
    Ready {
        inputs,
        fleet,
        base_rss_mb,
        reset_error,
    }
}

/// Everything one run measured and checked.
struct Run {
    ops: Vec<ClientRequest>,
    /// This process's set-up, from its start to the first timed call.
    setup_s: f64,
    phase: PhaseRun,
    /// Every timed call, both clients.
    samples: Vec<Sample>,
    /// `VmHWM` after the timed phase, in MiB.
    peak_rss_mb: f64,
    base_rss_mb: f64,
    reset_error: Option<String>,
    finished: Finished,
    settle_times: Vec<f64>,
    /// The settled exchange's `rtb.*` counters.
    rtb: Telemetry,
    exchange_digest: u64,
    fleet_digest: u64,
    /// The workload generated afresh after the timed phase.
    regenerated: Generated,
    market: Market,
    checks: Vec<Check>,
}

/// Sets up, runs the timed phase, settles the emitted bids `settles`
/// times, then runs the oracle. `started` is when the process (or test)
/// began: set-up is timed from it.
fn measure(spec: &Spec, started: Instant, settles: usize, corrupt_reference: bool) -> Run {
    let Ready {
        mut inputs,
        fleet,
        base_rss_mb,
        reset_error,
    } = set_up(spec);
    let setup_s = started.elapsed().as_secs_f64();

    let phase = run_phase(
        &fleet.front,
        spec,
        &inputs.generated.ops,
        &mut inputs.lanes,
        ROUNDS,
        &mut inputs.digests,
    );
    let peak_rss_mb = host::peak_rss_mb();
    let finished = fleet.finish().expect("the fleet shuts down cleanly");
    let Inputs {
        generated,
        lanes,
        digests,
        market,
        ..
    } = inputs;
    let samples = lanes
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();

    // Settle everything the timed phase emitted on fresh marketplaces.
    let mut settle_times = Vec::with_capacity(settles);
    let mut exchange = None;
    for _ in 0..settles.max(1) {
        let begin = Instant::now();
        let settled = market.settle(&finished.pending);
        settle_times.push(begin.elapsed().as_secs_f64());
        exchange = Some(settled);
    }
    let mut exchange = exchange.expect("at least one settle");
    let exchange_digest = exchange.log().digest();
    let rtb = Telemetry::new();
    exchange.drain_telemetry(&rtb);

    let ops = generated.ops;
    let regenerated = spec.generate();
    let observed = Observed {
        digests: &digests,
        exchange_digest,
        finished: &finished,
        failed: phase.failed,
    };
    let checks = oracle::check(
        spec,
        &ops,
        &regenerated,
        &market,
        &observed,
        corrupt_reference,
    );
    Run {
        ops,
        setup_s,
        phase,
        samples,
        peak_rss_mb,
        base_rss_mb,
        reset_error,
        finished,
        settle_times,
        rtb,
        exchange_digest,
        fleet_digest: digests.total(),
        regenerated,
        market,
        checks,
    }
}

/// Times `count` more set-ups, each in a fresh process of this program
/// run with `--setup-only` and timed from that process's start.
fn cold_setups(args: &Args, count: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    (0..count)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", args.kind.name(), "--seed"])
                .arg(args.seed.to_string())
                .arg("--seconds")
                .arg(args.seconds.to_string())
                .arg("--setup-only")
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("set-up process: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            match last.strip_prefix("setup_s ").map(str::parse::<f64>) {
                Some(Ok(s)) if out.status.success() => Ok(s),
                _ => Err(format!("set-up process ended {}: {last}", out.status)),
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            eprintln!(
                "usage: fleetbench --workload <steady_ads|trace_replay|faulty_fabric> --seed N \
                 --seconds S --trace <0|1> [--corrupt-reference]"
            );
            return ExitCode::from(2);
        }
    };
    quiet_injected_faults();
    let spec = Spec::for_run(args.kind, args.seed, args.seconds);
    if args.setup_only {
        let ready = set_up(&spec);
        let setup_s = started.elapsed().as_secs_f64();
        ready
            .fleet
            .finish()
            .expect("a set-up fleet shuts down cleanly");
        println!("setup_s {setup_s}");
        return ExitCode::SUCCESS;
    }
    let run = measure(&spec, started, SETTLES, args.corrupt_reference);
    let mut setup_times = vec![run.setup_s];
    match cold_setups(&args, setups(spec.kind) - 1) {
        Ok(times) => setup_times.extend(times),
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    let correct = run.checks.iter().all(|c| c.ok);

    report::header(&spec, &args_line(&args), run.ops.len());
    println!(
        "  digests: served outputs {:016x}, exchange log {:016x}",
        run.fleet_digest, run.exchange_digest
    );
    let rounds = Rounds::of(&run);
    let e2e = end_to_end(&run, &rounds, &setup_times);
    report::run_quality(&run.phase, &setup_times, &run.settle_times);
    rounds.print();
    if let Some(e) = &run.reset_error {
        println!("  VmHWM could not be reset before the fleet ({e}): peak_rss_mb includes the benchmark's inputs");
    }
    report::metrics("end-to-end", &e2e);
    report::checks(&run.checks);
    let metrics = if args.trace {
        let layers = layers::trace(&spec, &run);
        layers.print();
        layers.json_metrics()
    } else {
        e2e.iter().filter(|m| m.gated).cloned().collect()
    };
    report::result_line(correct, run.ops.len() as u64, run.phase.failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn args_line(args: &Args) -> String {
    format!(
        "{} seed={} seconds={} trace={}{}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.corrupt_reference {
            " corrupt-reference"
        } else {
            ""
        }
    )
}

/// Per-round figures of the timed phase.
struct Rounds {
    ops_per_s: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    /// Per op kind: the p50 round trip, in µs, of each round that holds
    /// the kind.
    p50_us: [Vec<f64>; 3],
}

impl Rounds {
    fn of(run: &Run) -> Rounds {
        let rounds = &run.phase.rounds;
        let mut ns: Vec<[Vec<u64>; 3]> = vec![Default::default(); rounds.len()];
        for s in &run.samples {
            let k = s.op as usize;
            let r = rounds.partition_point(|round| round.ops.end <= k);
            ns[r][OpKind::of(&run.ops[k]) as usize].push(s.ns);
        }
        let mut p50_us: [Vec<f64>; 3] = Default::default();
        for by_kind in &mut ns {
            for (kind, ns) in by_kind.iter_mut().enumerate() {
                if !ns.is_empty() {
                    ns.sort_unstable();
                    p50_us[kind].push(percentile(ns, 0.5) as f64 / 1e3);
                }
            }
        }
        Rounds {
            ops_per_s: rounds
                .iter()
                .map(|r| r.ops.len() as f64 / r.wall_s)
                .collect(),
            cpu_us_per_op: rounds
                .iter()
                .map(|r| r.cpu_s * 1e6 / r.ops.len() as f64)
                .collect(),
            p50_us,
        }
    }

    fn print(&self) {
        let list = |values: &[f64]| {
            values
                .iter()
                .map(|v| format!("{v:.2}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!("  rounds: ops_per_s [{}]", list(&self.ops_per_s));
        println!("          cpu_us_per_op [{}]", list(&self.cpu_us_per_op));
        println!(
            "          ad_p50_us [{}]",
            list(&self.p50_us[OpKind::Ad as usize])
        );
    }
}

/// The end-to-end metrics of one run. The gated ones occur on every
/// workload, steadily enough to bound, and stand in `BENCHMARK.json`.
fn end_to_end(run: &Run, rounds: &Rounds, setup_times: &[f64]) -> Vec<Metric> {
    let Run {
        ops,
        phase,
        samples,
        settle_times,
        ..
    } = run;
    let n = ops.len();
    let of_rounds = format!("median of {} rounds", phase.rounds.len());
    let mut metrics = vec![
        Metric::new("setup_s", median(setup_times), "s", setup_times.len())
            .with_base(format!(
                "median of {} set-ups, each in a fresh process",
                setup_times.len()
            ))
            .gated(),
        Metric::new("ops_per_s", median(&rounds.ops_per_s), "ops/s", n)
            .with_base(of_rounds.clone()),
        Metric::new("cpu_us_per_op", median(&rounds.cpu_us_per_op), "us", n).with_base(of_rounds),
    ];
    for kind in OpKind::ALL {
        let mut ns: Vec<u64> = samples
            .iter()
            .filter(|s| OpKind::of(&ops[s.op as usize]) == kind)
            .map(|s| s.ns)
            .collect();
        if ns.is_empty() {
            continue;
        }
        ns.sort_unstable();
        let p50s = &rounds.p50_us[kind as usize];
        metrics.push(
            Metric::new(
                format!("{}_p50_us", kind.name()),
                median(p50s),
                "us",
                ns.len(),
            )
            .with_base(format!("median of {} rounds", p50s.len())),
        );
        metrics.push(Metric::new(
            format!("{}_p99_us", kind.name()),
            percentile(&ns, 0.99) as f64 / 1e3,
            "us",
            ns.len(),
        ));
    }
    let bids = run.finished.pending.len();
    let fastest = settle_times.iter().copied().fold(f64::INFINITY, f64::min);
    metrics.push(Metric::new(
        "settle_per_s",
        bids as f64 / fastest,
        "bids/s",
        bids,
    ));
    metrics.push(
        Metric::new("peak_rss_mb", run.peak_rss_mb - run.base_rss_mb, "MiB", 1)
            .with_base(format!(
                "VmHWM {:.1} MiB - {:.1} MiB resident before the fleet",
                run.peak_rss_mb, run.base_rss_mb
            ))
            .gated(),
    );
    metrics.push(
        Metric::new("failed_share", phase.failed as f64 / n as f64, "ratio", n)
            .with_base(format!("{} failed of {n} attempted", phase.failed)),
    );
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counters the serving stack marks deterministic for one workload.
    const EDGE_COUNTERS: [&str; 9] = [
        "edge.checkins",
        "edge.location_requests",
        "edge.windows_closed",
        "edge.fresh_candidate_sets",
        "edge.posterior_cache_hits",
        "edge.posterior_cache_misses",
        "edge.posterior_draws",
        "edge.uniform_draws",
        "edge.nomadic_draws",
    ];
    const RTB_COUNTERS: [&str; 4] = [
        "rtb.bid_requests",
        "rtb.bids_won",
        "rtb.no_bids",
        "rtb.revenue_micros",
    ];

    /// What must repeat exactly for one seed.
    #[derive(Debug, PartialEq)]
    struct Witnesses {
        ops: Vec<ClientRequest>,
        counters: Vec<Option<u64>>,
        fabric: Option<[u64; 8]>,
        fleet_digest: u64,
        exchange_digest: u64,
    }

    fn small(kind: Kind, seed: u64) -> Spec {
        match kind {
            Kind::SteadyAds => Spec::sized(kind, seed, 40, 400),
            Kind::TraceReplay => Spec::sized(kind, seed, 3, 0),
            Kind::FaultyFabric => Spec::sized(kind, seed, 30, 600),
        }
    }

    fn witnesses(spec: &Spec) -> Witnesses {
        let run = measure(spec, Instant::now(), 1, false);
        for c in &run.checks {
            assert!(c.ok, "{}: {} ({})", spec.kind.name(), c.name, c.detail);
        }
        let edge = run.finished.hub.registry().snapshot();
        let rtb = run.rtb.registry().snapshot();
        let counters = EDGE_COUNTERS
            .iter()
            .map(|name| edge.counter(name))
            .chain(RTB_COUNTERS.iter().map(|name| rtb.counter(name)))
            .collect();
        let fabric = run.finished.fabric.map(|s| {
            [
                s.drops_injected,
                s.corruptions_injected,
                s.duplicates_injected,
                s.outage_failures,
                s.deadline_misses,
                s.degraded_serves + s.degraded_rejections,
                s.heals,
                s.breaker_transitions,
            ]
        });
        Witnesses {
            ops: run.ops,
            counters,
            fabric,
            fleet_digest: run.fleet_digest,
            exchange_digest: run.exchange_digest,
        }
    }

    #[test]
    fn a_seed_repeats_exactly_and_another_seed_changes_the_operations() {
        for kind in Kind::ALL {
            let first = witnesses(&small(kind, 7));
            assert!(!first.ops.is_empty(), "{}", kind.name());
            assert_eq!(first, witnesses(&small(kind, 7)), "{}", kind.name());
            assert_ne!(first.ops, small(kind, 8).generate().ops, "{}", kind.name());
        }
    }

    /// The metric names one section of `BENCHMARK.json` lists, in order.
    fn listed(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let body = &text[text
            .find(&format!("\"{section}\""))
            .expect("section present")..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted")].to_owned())
            .collect()
    }

    #[test]
    fn every_workload_reports_exactly_the_metrics_benchmark_json_lists() {
        for kind in Kind::ALL {
            let spec = small(kind, 5);
            let run = measure(&spec, Instant::now(), 1, false);
            let e2e = end_to_end(&run, &Rounds::of(&run), &[run.setup_s]);
            let gated: Vec<String> = e2e
                .iter()
                .filter(|m| m.gated)
                .map(|m| m.name.clone())
                .collect();
            assert_eq!(gated, listed("end_to_end"), "{}", kind.name());
            let layers = layers::trace(&spec, &run);
            let traced: Vec<String> = layers.json_metrics().into_iter().map(|m| m.name).collect();
            assert_eq!(traced, listed("per_layer"), "{}", kind.name());
        }
    }

    #[test]
    fn a_corrupted_reference_digest_fails_the_run() {
        let run = measure(&small(Kind::SteadyAds, 3), Instant::now(), 1, true);
        let failed: Vec<&str> = run
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.name)
            .collect();
        assert_eq!(failed, ["served outputs = reference"]);
    }
}
