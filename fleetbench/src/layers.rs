//! The traced run: per-layer costs, joined to the fleet's round trips by
//! operation index.
//!
//! After the timed phase, the workload's exact operation list is replayed
//! through each layer's public functions on in-process
//! [`EdgeDevice::with_per_user_streams`] devices with the fleet's master
//! seed, one per shard, and every call into a layer is timed from here. Operation `k`'s replayed
//! parts are subtracted from fleet call `k`'s round trip; what is left is
//! the transport: router, shard hand-off, commit capture, dedup
//! bookkeeping, and on `faulty_fabric` the fabric itself. Spans stay in
//! memory and are written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use bytes::Bytes;
use privlocad::protocol::{ClientRequest, EdgeResponse};
use privlocad::{EdgeDevice, StateFootprint};
use privlocad_attack::LocationProfile;
use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use privlocad_mechanisms::{BatchScratch, CandidateLanes, NFoldGaussian, PlanarLaplace};
use privlocad_openrtb::{BidRequest, BidSink, DeviceId, Geo, PendingBid};
use privlocad_telemetry::{MetricsSnapshot, Telemetry};

use crate::oracle::settled_shards;
use crate::report::{median, percentile, Metric};
use crate::workload::{user_of, Kind, OpKind, Spec, SHARDS};
use crate::Run;

/// Where span files go, relative to the working directory.
pub const OUT_DIR: &str = "fleetbench_out";
/// At most this many spans are written per run (every k-th operation).
const SPANS_WRITTEN: usize = 20_000;

/// The replayed parts of one operation, in ns (timer overhead removed).
#[derive(Debug, Clone, Copy, Default)]
struct Parts {
    request: u64,
    edge: u64,
    drain: u64,
    submit: u64,
    response: u64,
}

impl Parts {
    fn sum(&self) -> u64 {
        self.request + self.edge + self.drain + self.submit + self.response
    }
}

/// One per-layer row: the metric and the end-to-end metric it should move.
#[derive(Debug, Clone)]
pub struct Row {
    /// The measurement.
    pub metric: Metric,
    /// The end-to-end metric (and workload) a change here should move.
    pub moves: &'static str,
}

/// Everything the traced run reports.
#[derive(Debug, Default)]
pub struct Layers {
    rows: Vec<Row>,
    waterfalls: Vec<(String, Vec<(&'static str, f64)>)>,
    spans_file: Option<String>,
}

/// Metrics of the result line under `--trace 1`: the per-layer metrics
/// every workload measures (the rest are printed only).
pub const RESULT_METRICS: [&str; 16] = [
    "protocol.request_ns",
    "protocol.response_ns",
    "edge.ad_ns",
    "telemetry.drain_ns",
    "openrtb.submit_ns",
    "openrtb.decode_ns",
    "adnet.auction_ns",
    "adnet.win_share",
    "mechanisms.nomadic_ns",
    "residual.ad_us",
    "server.batch_mean",
    "server.checkpoints",
    "edge.bytes_per_user",
    "recovery.checkpoint_ms",
    "recovery.restore_ms",
    "recovery.bytes_per_user",
];

impl Layers {
    fn push(&mut self, metric: Metric, moves: &'static str) {
        self.rows.push(Row { metric, moves });
    }

    fn value(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        moves: &'static str,
    ) {
        self.push(Metric::new(name, value, unit, samples), moves);
    }

    fn ratio(&mut self, name: &str, part: u64, base: u64, base_name: &str, moves: &'static str) {
        let value = if base == 0 {
            0.0
        } else {
            part as f64 / base as f64
        };
        let metric = Metric::new(name, value, "ratio", base as usize);
        self.push(
            metric.with_base(format!("{part} of {base} {base_name}")),
            moves,
        );
    }

    /// The result-line metrics, in [`RESULT_METRICS`] order.
    pub fn json_metrics(&self) -> Vec<Metric> {
        RESULT_METRICS
            .iter()
            .map(|name| {
                self.rows
                    .iter()
                    .find(|r| r.metric.name == *name)
                    .map(|r| r.metric.clone())
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
            })
            .collect()
    }

    /// Prints the per-layer table and the waterfalls.
    pub fn print(&self) {
        println!("per-layer (traced replay, joined to fleet calls by operation index):");
        println!(
            "  {:<34} {:>14} {:<6} {:>9}  {:<34} base",
            "metric", "value", "unit", "samples", "should move"
        );
        for row in &self.rows {
            let m = &row.metric;
            println!(
                "  {:<34} {:>14.3} {:<6} {:>9}  {:<34} {}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                row.moves,
                m.base.as_deref().unwrap_or("")
            );
        }
        for (title, parts) in &self.waterfalls {
            println!("waterfall, {title} (µs):");
            let total: f64 = parts.iter().map(|(_, us)| us).sum();
            for (label, us) in parts {
                let bar = "#".repeat(((us / total.max(1e-9)) * 40.0).round() as usize);
                println!("  {label:<22} {us:>10.3}  {bar}");
            }
        }
        println!(
            "tracing overhead: 0 on every end-to-end metric, all taken before the replay \
             (tracing.replay_s is the wall time it adds)"
        );
        if let Some(path) = &self.spans_file {
            println!("spans: {path}");
        }
    }
}

/// Cost of one `Instant::now()` pair, subtracted from every timed part.
fn timer_overhead_ns() -> u64 {
    let mut ns: Vec<u64> = (0..2_000)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    percentile(&ns, 0.5)
}

/// Mean of the middle half of `values` (sorted in place): as robust to
/// stray slow calls as the median, and not stuck on whole nanoseconds.
fn interquartile_mean(values: &mut [u64]) -> f64 {
    values.sort_unstable();
    let middle = &values[values.len() / 4..values.len() - values.len() / 4];
    middle.iter().sum::<u64>() as f64 / middle.len().max(1) as f64
}

/// Runs the traced replay of `run` and gathers every per-layer metric.
/// Every end-to-end figure of `run` was taken before the replay starts.
pub fn trace(spec: &Spec, run: &Run) -> Layers {
    let begun = Instant::now();
    let Run {
        regenerated: generated,
        samples,
        finished,
        market,
        rtb,
        ..
    } = run;
    let ops = &generated.ops;
    let tick = timer_overhead_ns();
    let since = |start: Instant| (start.elapsed().as_nanos() as u64).saturating_sub(tick);

    // One replay device per shard, holding the users the fleet's shard
    // holds and settled with the same check-ins and closes the fleet got:
    // per-layer costs then see the same per-shard working set.
    let hub = Telemetry::new();
    let mut devices = settled_shards(spec, &generated.settle, &hub);
    let mut responses = Vec::new();

    let nomadic = PlanarLaplace::new(spec.config.nomadic());
    let gaussian = NFoldGaussian::new(spec.config.geo_ind());
    let mut rng = seeded(derive_seed(spec.seed, 0x7ace));
    let (mut scratch, mut lanes) = (BatchScratch::new(), CandidateLanes::new());
    let sink = BidSink::new();
    let mut frame = Vec::new();
    let mut parts = vec![Parts::default(); ops.len()];
    let mut edge_by_kind: [Vec<u64>; 3] = Default::default();
    let (mut nomadic_ns, mut profile_ns, mut candidate_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut windows: Vec<Vec<Point>> = vec![Vec::new(); spec.users as usize];

    for (k, op) in ops.iter().enumerate() {
        let p = &mut parts[k];
        let user = user_of(op);
        let device = &mut devices[user.raw() as usize % SHARDS];
        let start = Instant::now();
        let decoded = ClientRequest::decode(&op.encode()).expect("valid request frame");
        p.request = since(start);

        let start = Instant::now();
        responses.clear();
        device.serve_batch(std::slice::from_ref(&decoded), &mut responses);
        p.edge = since(start);
        let kind = OpKind::of(op);
        edge_by_kind[kind as usize].push(p.edge);
        let stats = device.stats();

        let start = Instant::now();
        device.drain_telemetry(&hub);
        p.drain = since(start);

        match (*op, responses[0]) {
            (
                ClientRequest::RequestLocation { location, .. },
                EdgeResponse::ReportedLocation { location: released },
            ) => {
                let start = Instant::now();
                sink.submit(
                    DeviceId::new(u64::from(user.raw())),
                    Geo::from_point(released),
                );
                p.submit = since(start);
                if stats.nomadic_draws > 0 {
                    let start = Instant::now();
                    std::hint::black_box(nomadic.sample(location, &mut rng));
                    nomadic_ns.push(since(start));
                }
            }
            (ClientRequest::CheckIn { location, .. }, _) => {
                windows[user.raw() as usize].push(location)
            }
            (
                ClientRequest::FinalizeWindow { .. },
                EdgeResponse::WindowClosed { fresh_obfuscations },
            ) => {
                let window = std::mem::take(&mut windows[user.raw() as usize]);
                let start = Instant::now();
                let profile = std::hint::black_box(LocationProfile::from_checkins(
                    &window,
                    spec.config.profile_theta_m(),
                ));
                profile_ns.push(since(start));
                let fresh = fresh_obfuscations as usize;
                if fresh > 0 {
                    let tops: Vec<Point> = profile.iter().take(fresh).map(|e| e.location).collect();
                    let start = Instant::now();
                    lanes.clear();
                    gaussian.obfuscate_many_into(
                        &tops,
                        spec.seed,
                        k as u64,
                        &mut scratch,
                        &mut lanes,
                    );
                    std::hint::black_box(&lanes);
                    candidate_ns.push(since(start) / tops.len().max(1) as u64);
                }
            }
            _ => {}
        }

        let start = Instant::now();
        frame.clear();
        responses[0].encode_into(&mut frame);
        std::hint::black_box(EdgeResponse::decode(&frame).expect("valid response frame"));
        p.response = since(start);
    }

    // Join by operation index: round trip minus replayed parts.
    let mut round_trip = vec![0u64; ops.len()];
    let mut start_ns = vec![0u64; ops.len()];
    for s in samples {
        round_trip[s.op as usize] = s.ns;
        start_ns[s.op as usize] = s.start_ns;
    }
    let mut residual_by_kind: [Vec<u64>; 3] = Default::default();
    for (k, op) in ops.iter().enumerate() {
        residual_by_kind[OpKind::of(op) as usize]
            .push(round_trip[k].saturating_sub(parts[k].sum()));
    }

    let mut layers = Layers::default();
    let n = ops.len();
    let all = |f: fn(&Parts) -> u64| parts.iter().map(f).collect::<Vec<u64>>();
    layers.value(
        "protocol.request_ns",
        interquartile_mean(&mut all(|p| p.request)),
        "ns",
        n,
        "ad_p50_us, cpu_us_per_op",
    );
    layers.value(
        "protocol.response_ns",
        interquartile_mean(&mut all(|p| p.response)),
        "ns",
        n,
        "ad_p50_us, cpu_us_per_op",
    );
    let ads = edge_by_kind[OpKind::Ad as usize].len();
    layers.value(
        "edge.ad_ns",
        interquartile_mean(&mut edge_by_kind[OpKind::Ad as usize]),
        "ns",
        ads,
        "ad_p50_us",
    );
    let checkins = edge_by_kind[OpKind::CheckIn as usize].len();
    if checkins > 0 {
        layers.value(
            "edge.checkin_ns",
            interquartile_mean(&mut edge_by_kind[OpKind::CheckIn as usize]),
            "ns",
            checkins,
            "checkin_p50_us",
        );
    }
    let closes = &mut edge_by_kind[OpKind::Close as usize];
    if !closes.is_empty() {
        closes.sort_unstable();
        let c = closes.len();
        layers.value(
            "edge.close_p50_us",
            percentile(closes, 0.5) as f64 / 1e3,
            "us",
            c,
            "close_p50_us",
        );
        layers.value(
            "edge.close_p99_us",
            percentile(closes, 0.99) as f64 / 1e3,
            "us",
            c,
            "close_p99_us, checkin_p99_us",
        );
        let p = profile_ns.len();
        layers.value(
            "management.profile_us",
            interquartile_mean(&mut profile_ns) / 1e3,
            "us",
            p,
            "close_p50_us",
        );
        if !candidate_ns.is_empty() {
            let c = candidate_ns.len();
            layers.value(
                "mechanisms.candidate_set_us",
                interquartile_mean(&mut candidate_ns) / 1e3,
                "us",
                c,
                "close_p50_us",
            );
        }
    }
    let d = nomadic_ns.len();
    layers.value(
        "mechanisms.nomadic_ns",
        interquartile_mean(&mut nomadic_ns),
        "ns",
        d,
        "ad_p50_us",
    );
    layers.value(
        "telemetry.drain_ns",
        interquartile_mean(&mut all(|p| p.drain)),
        "ns",
        n,
        "cpu_us_per_op, ad_p50_us",
    );
    let mut submits: Vec<u64> = ops
        .iter()
        .zip(&parts)
        .filter(|(op, _)| OpKind::of(op) == OpKind::Ad)
        .map(|(_, p)| p.submit)
        .collect();
    let s = submits.len();
    layers.value(
        "openrtb.submit_ns",
        interquartile_mean(&mut submits),
        "ns",
        s,
        "ad_p50_us",
    );

    // Settlement layers, bulk-timed over every bid the fleet emitted (one
    // call is tens of ns, too close to the timer to time singly).
    let pending: &[PendingBid] = &finished.pending;
    let start = Instant::now();
    let requests: Vec<BidRequest> = pending
        .iter()
        .map(|p| {
            BidRequest::decode_slice(&p.frame)
                .expect("sink frames decode")
                .0
        })
        .collect();
    let decode_ns = start.elapsed().as_nanos() as f64 / pending.len().max(1) as f64;
    layers.value(
        "openrtb.decode_ns",
        decode_ns,
        "ns",
        pending.len(),
        "settle_per_s",
    );
    let mut network = market.network();
    let start = Instant::now();
    for request in &requests {
        std::hint::black_box(network.serve_exchange(request));
    }
    let auction_ns = start.elapsed().as_nanos() as f64 / requests.len().max(1) as f64;
    layers.value(
        "adnet.auction_ns",
        auction_ns,
        "ns",
        requests.len(),
        "settle_per_s",
    );
    let rtb_counters = rtb.registry().snapshot();
    let counter = |m: &MetricsSnapshot, name: &str| m.counter(name).unwrap_or(0);
    layers.ratio(
        "adnet.win_share",
        counter(&rtb_counters, "rtb.bids_won"),
        counter(&rtb_counters, "rtb.bid_requests"),
        "bid requests (rtb.bids_won / rtb.bid_requests)",
        "settle_per_s",
    );

    // Transport: what the in-process replay does not account for.
    let front = if spec.kind == Kind::FaultyFabric {
        "fabric"
    } else {
        "server"
    };
    for kind in OpKind::ALL {
        let residual = &mut residual_by_kind[kind as usize];
        if residual.is_empty() {
            continue;
        }
        let r = residual.len();
        let value = interquartile_mean(residual) / 1e3;
        let residual = Metric::new(format!("residual.{}_us", kind.name()), value, "us", r);
        let base = format!("{front}: round trip - replayed parts");
        let moves = match kind {
            OpKind::Ad => "ad_p50_us, cpu_us_per_op",
            OpKind::CheckIn => "checkin_p50_us, cpu_us_per_op",
            OpKind::Close => "close_p50_us",
        };
        layers.push(residual.with_base(base), moves);
    }

    // Hub counters.
    let metrics = finished.hub.registry().snapshot();
    let c = |name: &str| counter(&metrics, name);
    let (requests, wakeups) = (c("server.requests"), c("server.wakeups"));
    let batch_mean = Metric::new(
        "server.batch_mean",
        requests as f64 / wakeups.max(1) as f64,
        "req",
        wakeups as usize,
    );
    layers.push(
        batch_mean.with_base(format!("{requests} requests / {wakeups} wakeups")),
        "ops_per_s",
    );
    layers.value(
        "server.checkpoints",
        c("server.checkpoints") as f64,
        "count",
        1,
        "ops_per_s",
    );
    layers.value(
        "server.restarts",
        c("server.restarts") as f64,
        "count",
        1,
        "ad_p99_us",
    );
    let requests_served = c("edge.location_requests");
    layers.ratio(
        "edge.nomadic_share",
        c("edge.nomadic_draws"),
        requests_served,
        "location requests",
        "ad_p50_us (mix)",
    );
    let lookups = c("edge.posterior_cache_hits") + c("edge.posterior_cache_misses");
    layers.ratio(
        "edge.cache_hit_share",
        c("edge.posterior_cache_hits"),
        lookups,
        "posterior lookups",
        "ad_p50_us (mix)",
    );
    layers.value(
        "edge.fresh_sets",
        c("edge.fresh_candidate_sets") as f64,
        "count",
        1,
        "close_p50_us",
    );

    // Recovery and footprint of the final shard devices.
    let mut footprint = StateFootprint::default();
    let (mut checkpoint_ms, mut restore_ms, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for shard in &finished.devices {
        let fp = shard.footprint();
        footprint.users += fp.users;
        footprint.user_bytes += fp.user_bytes;
        footprint.shared_bytes += fp.shared_bytes;
        for round in 0..3 {
            let start = Instant::now();
            let image: Bytes = shard.checkpoint();
            checkpoint_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let start = Instant::now();
            let restored = EdgeDevice::restore_from_checkpoint(spec.config, &image)
                .expect("checkpoint restores");
            restore_ms.push(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(&restored);
            if round == 0 {
                bytes += image.len();
            }
        }
    }
    let users = footprint.users.max(1);
    layers.value(
        "edge.bytes_per_user",
        footprint.bytes_per_user(),
        "B",
        users,
        "peak_rss_mb",
    );
    let shards = finished.devices.len();
    layers.value(
        "recovery.checkpoint_ms",
        median(&checkpoint_ms),
        "ms",
        checkpoint_ms.len(),
        "setup_s",
    );
    layers.value(
        "recovery.restore_ms",
        median(&restore_ms),
        "ms",
        restore_ms.len(),
        "setup_s, ad_p99_us",
    );
    layers.value(
        "recovery.bytes_per_user",
        bytes as f64 / users as f64,
        "B",
        shards,
        "setup_s",
    );

    if let Some(stats) = finished.fabric {
        let calls = requests.max(1);
        let transmissions =
            calls + stats.drops_injected + stats.corruptions_injected + stats.duplicates_injected;
        let per_call = Metric::new(
            "fabric.transmissions_per_call",
            transmissions as f64 / calls as f64,
            "ratio",
            calls as usize,
        );
        layers.push(
            per_call.with_base(format!(
                "{transmissions} transmissions / {calls} applied calls"
            )),
            "ad_p50_us, cpu_us_per_op",
        );
        layers.value(
            "fabric.duplicates",
            stats.duplicates_injected as f64,
            "count",
            1,
            "cpu_us_per_op",
        );
        layers.value("fabric.heals", stats.heals as f64, "count", 1, "ad_p99_us");
        layers.value(
            "fabric.deadline_misses",
            stats.deadline_misses as f64,
            "count",
            1,
            "failed_share",
        );
        layers.value(
            "fabric.degraded",
            (stats.degraded_serves + stats.degraded_rejections) as f64,
            "count",
            1,
            "failed_share",
        );
    }

    // Waterfalls: the median and p99 ad request by round trip.
    let mut ad_ops: Vec<usize> = (0..ops.len())
        .filter(|&k| OpKind::of(&ops[k]) == OpKind::Ad)
        .collect();
    ad_ops.sort_by_key(|&k| round_trip[k]);
    for (label, q) in [("median", 0.5), ("p99", 0.99)] {
        if ad_ops.is_empty() {
            break;
        }
        let rank = ((q * ad_ops.len() as f64).ceil() as usize).clamp(1, ad_ops.len()) - 1;
        let k = ad_ops[rank];
        let p = parts[k];
        let us = |ns: u64| ns as f64 / 1e3;
        layers.waterfalls.push((
            format!(
                "{label} ad request (op {k}, round trip {:.3} µs)",
                us(round_trip[k])
            ),
            vec![
                ("protocol.request", us(p.request)),
                ("edge.serve", us(p.edge)),
                ("telemetry.drain", us(p.drain)),
                ("openrtb.submit", us(p.submit)),
                ("protocol.response", us(p.response)),
                (
                    if front == "fabric" {
                        "fabric+transport"
                    } else {
                        "server transport"
                    },
                    us(round_trip[k].saturating_sub(p.sum())),
                ),
            ],
        ));
    }

    // The replay runs after every end-to-end figure was taken, so their
    // tracing overhead is 0; what tracing costs is the wall time it adds.
    layers.value(
        "tracing.replay_s",
        begun.elapsed().as_secs_f64(),
        "s",
        ops.len(),
        "(none: after the timed phase)",
    );

    layers.spans_file = write_spans(spec, ops, &start_ns, &round_trip, &parts).ok();
    layers
}

/// Writes every k-th span (at most [`SPANS_WRITTEN`]) as CSV.
fn write_spans(
    spec: &Spec,
    ops: &[ClientRequest],
    start_ns: &[u64],
    round_trip: &[u64],
    parts: &[Parts],
) -> std::io::Result<String> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/{}-seed{}-spans.csv", spec.kind.name(), spec.seed);
    let stride = ops.len().div_ceil(SPANS_WRITTEN).max(1);
    let mut csv = String::from(
        "op,kind,user,client,start_ns,round_trip_ns,request_ns,edge_ns,drain_ns,submit_ns,response_ns,residual_ns\n",
    );
    for k in (0..ops.len()).step_by(stride) {
        let p = parts[k];
        let user = user_of(&ops[k]);
        let _ = writeln!(
            csv,
            "{k},{},{},{},{},{},{},{},{},{},{},{}",
            OpKind::of(&ops[k]).name(),
            user.raw(),
            spec.client_of(user),
            start_ns[k],
            round_trip[k],
            p.request,
            p.edge,
            p.drain,
            p.submit,
            p.response,
            round_trip[k].saturating_sub(p.sum())
        );
    }
    std::fs::write(&path, csv)?;
    Ok(path)
}
