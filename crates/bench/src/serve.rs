//! The `bench serve` workload: end-to-end throughput of the edge serving
//! path, per stage.
//!
//! A synthetic fleet of users is settled at their top locations (untimed),
//! then a stream of `RequestLocation` protocol frames is pushed through
//! four serving configurations:
//!
//! 1. `serve/legacy_single` — a faithful replica of the pre-batching
//!    request loop: per request, the candidate set is cloned and every
//!    posterior weight is recomputed with per-candidate `exp()`.
//! 2. `serve/batched_cached/{B}` — frames decoded and served in
//!    `B`-request batches, one `serve_batch` call per batch (run right
//!    after the legacy stage so their ratio is taken under the same
//!    scheduling conditions).
//! 3. `serve/single_cached` — one request per [`EdgeDevice::serve_batch`]
//!    call, posterior tables served from the selection cache.
//! 4. `serve/partitioned_batched/{B}x{T}` — `T` worker threads, each
//!    owning one per-user-stream [`EdgeDevice`] over a contiguous range of
//!    users and serving `B`-request batches per
//!    [`EdgeDevice::serve_batch`] call.
//!
//! Timing comes from [`crate::microbench::Runner`] (nine samples per
//! stage, the legacy/batched pair interleaved; the fastest sample is the
//! reported statistic — DESIGN.md §11), so each row reports both
//! ns/request and requests/sec. Rows carry the batch
//! size and thread count that produced them — the `--bench-json` schema
//! check refuses serving rows without that context.

use bytes::Bytes;
use privlocad::protocol::{ClientRequest, EdgeResponse};
use privlocad::{EdgeDevice, SystemConfig};
use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use privlocad_mechanisms::{NFoldGaussian, PosteriorSelector, SelectionStrategy};
use privlocad_mobility::UserId;
use privlocad_telemetry::Telemetry;

use crate::microbench::Runner;
use crate::report::Table;
use crate::tables::partition;

/// Serving-benchmark parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Fleet size; every user is settled at a distinct top location.
    pub users: usize,
    /// Requests per measured iteration, round-robin across users.
    pub requests: usize,
    /// Requests drained per serving-loop wakeup in the batched stages.
    pub batch: usize,
    /// Master seed; all stage RNGs are derived from it.
    pub seed: u64,
    /// Worker threads (one edge device each) for the partitioned stage.
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        // 32K requests keep even the fastest stage's iteration in the
        // milliseconds, so scheduler hiccups cannot dominate a median.
        Config { users: 64, requests: 32_768, batch: 64, seed: 0, threads: 2 }
    }
}

/// One measured serving stage.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Stage label, `serve/...`.
    pub name: String,
    /// Wall-clock per measured iteration (serving all requests once).
    pub wall_ms: f64,
    /// Nanoseconds per served request.
    pub ns_per_request: f64,
    /// End-to-end throughput.
    pub requests_per_sec: f64,
    /// Requests per serving-loop wakeup in this stage.
    pub batch: usize,
    /// Worker threads in this stage.
    pub threads: usize,
}

/// The full serving-benchmark result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// One row per stage, in execution order.
    pub rows: Vec<ServeRow>,
    /// The deterministic serving profile of the benchmark workload: one
    /// untimed pass of the full request stream through a fresh settled
    /// device, drained into this hub (edge counters + privacy-budget
    /// ledger). Exported next to the BENCH rows — see
    /// [`Telemetry::to_json`].
    pub telemetry: Telemetry,
}

impl Outcome {
    /// Throughput of the cached+batched single-thread stage relative to
    /// the legacy single-request replica.
    pub fn batched_speedup(&self) -> Option<f64> {
        let rps = |prefix: &str| {
            self.rows.iter().find(|r| r.name.starts_with(prefix)).map(|r| r.requests_per_sec)
        };
        Some(rps("serve/batched_cached")? / rps("serve/legacy_single")?)
    }

    /// Renders the paper-style summary table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "edge serving throughput",
            &["stage", "batch", "threads", "ns/req", "req/s"],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.name.clone(),
                row.batch.to_string(),
                row.threads.to_string(),
                format!("{:.0}", row.ns_per_request),
                format!("{:.0}", row.requests_per_sec),
            ]);
        }
        table
    }
}

/// A deterministic grid of top locations, far enough apart that every user
/// gets an independent candidate set.
fn home_of(user: usize) -> Point {
    Point::new((user % 1_000) as f64 * 2_000.0, (user / 1_000) as f64 * 2_000.0)
}

/// Settles `users` users at their homes on a fresh [`EdgeDevice`]:
/// check-ins plus a window close, so candidates exist and the posterior
/// tables are warm.
fn settled_edge(config: &Config) -> EdgeDevice {
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let mut edge = EdgeDevice::new(sys, config.seed);
    for u in 0..config.users {
        let user = UserId::new(u as u32);
        for _ in 0..12 {
            edge.report_checkin(user, home_of(u));
        }
        edge.finalize_window(user);
    }
    edge
}

/// One untimed pass of the full request stream through a fresh settled
/// device, drained into a telemetry hub. Runs outside the measured
/// iterations so the serving profile comes for free, and deterministically:
/// the hub's [`Telemetry::deterministic_json`] is a pure function of the
/// benchmark config.
fn telemetry_pass(config: &Config, frames: &[Vec<u8>]) -> Telemetry {
    let telemetry = Telemetry::new();
    let mut edge = settled_edge(config);
    let mut responses = Vec::new();
    let decoded: Vec<ClientRequest> =
        frames.iter().map(|f| ClientRequest::decode(f).expect("valid frame")).collect();
    for chunk in decoded.chunks(config.batch.max(1)) {
        responses.clear();
        edge.serve_batch(chunk, &mut responses);
    }
    edge.drain_telemetry(&telemetry);
    telemetry
}

/// The request stream as encoded protocol frames: `requests` ad requests,
/// round-robin across the fleet, each at the user's top location (the
/// posterior-selection hot path).
fn request_frames(config: &Config) -> Vec<Vec<u8>> {
    (0..config.requests)
        .map(|i| {
            let u = i % config.users;
            ClientRequest::RequestLocation { user: UserId::new(u as u32), location: home_of(u) }
                .encode()
                .to_vec()
        })
        .collect()
}

/// Runs every serving stage and returns the per-stage rows.
pub fn run(config: &Config) -> Outcome {
    let mut runner = Runner::new();
    let frames = request_frames(config);
    let requests = frames.len() as u64;

    // Stages 1 + 2, sampled interleaved (their ratio is the headline
    // speedup number, so both sides must see the same scheduling
    // conditions — see [`Runner::bench_throughput_paired`]).
    //
    // Stage 1 is the pre-batching request loop, replicated. Per request:
    // decode, walk the `BTreeMap` user directory (the pre-batching
    // device's storage), match the location against the top set, clone
    // the candidate set, build the selector, recompute every posterior
    // weight, and ship the response as an owned `Vec<u8>` — each step
    // exactly as the pre-batching serving loop did it.
    //
    // Stage 2 drains the frames in `batch`-sized wakeups, all responses
    // of a wakeup encoded into one shared block (the [`crate::serve`]-loop
    // pattern: clients get zero-copy slices of it).
    {
        let legacy_edge = settled_edge(config);
        let sigma = NFoldGaussian::new(legacy_edge.config().geo_ind()).sigma();
        let radius_sq = {
            let r = legacy_edge.config().top_match_radius_m();
            r * r
        };
        let legacy_users: std::collections::BTreeMap<UserId, (Point, Vec<Point>)> = (0..config
            .users)
            .map(|u| {
                let user = UserId::new(u as u32);
                let top = home_of(u);
                (user, (top, legacy_edge.candidates(user, top).expect("settled").to_vec()))
            })
            .collect();
        let mut rng = seeded(derive_seed(config.seed, 0x1e9acc));

        let mut edge = settled_edge(config);
        let mut decoded = Vec::new();
        let mut responses = Vec::new();
        let mut frame_buf: Vec<u8> = Vec::new();
        let label = format!("serve/batched_cached/{}", config.batch);

        runner.bench_throughput_paired(
            ("serve/legacy_single", requests, &mut || {
                let mut sink = 0usize;
                for frame in &frames {
                    let Ok(ClientRequest::RequestLocation { user, location }) =
                        ClientRequest::decode(frame)
                    else {
                        unreachable!("stream holds only RequestLocation frames")
                    };
                    let (top, permanent) = legacy_users.get(&user).expect("settled");
                    assert!(top.distance_sq(location) <= radius_sq, "stream stays on-top");
                    let candidates = permanent.to_vec();
                    let idx = PosteriorSelector::new(sigma).select(&candidates, &mut rng);
                    let response = EdgeResponse::ReportedLocation { location: candidates[idx] }
                        .encode()
                        .to_vec();
                    sink += response.len();
                }
                sink
            }),
            (&label, requests, &mut || {
                let mut sink = 0usize;
                for chunk in frames.chunks(config.batch) {
                    decoded.clear();
                    decoded.extend(
                        chunk.iter().map(|f| ClientRequest::decode(f).expect("valid frame")),
                    );
                    responses.clear();
                    edge.serve_batch(&decoded, &mut responses);
                    frame_buf.clear();
                    for response in &responses {
                        response.encode_into(&mut frame_buf);
                    }
                    sink += Bytes::copy_from_slice(&frame_buf).len();
                }
                sink
            }),
        );
    }

    // Stage 3: one request per serve_batch call, cached tables.
    {
        let mut edge = settled_edge(config);
        let mut responses = Vec::new();
        runner.bench_throughput("serve/single_cached", requests, || {
            let mut sink = 0usize;
            for frame in &frames {
                let request = ClientRequest::decode(frame).expect("valid frame");
                responses.clear();
                edge.serve_batch(std::slice::from_ref(&request), &mut responses);
                sink += responses[0].encode().len();
            }
            sink
        });
    }

    // Stage 4: one per-user-stream device per worker thread, each over a
    // contiguous range of users, serving every user's requests in
    // `batch`-sized `serve_batch` calls.
    let threads = config.threads.max(1);
    {
        let sys = SystemConfig::builder().build().expect("default config is valid");
        let per_user = (config.requests / config.users.max(1)).max(1);
        let mut workers: Vec<(EdgeDevice, Vec<ClientRequest>)> = partition(config.users, threads)
            .into_iter()
            .map(|users| {
                let mut edge = EdgeDevice::new(sys, config.seed);
                let mut requests = Vec::with_capacity(users.len() * per_user);
                for u in users {
                    let user = UserId::new(u as u32);
                    for _ in 0..12 {
                        edge.report_checkin(user, home_of(u));
                    }
                    edge.finalize_window(user);
                    requests.extend(
                        (0..per_user)
                            .map(|_| ClientRequest::RequestLocation { user, location: home_of(u) }),
                    );
                }
                (edge, requests)
            })
            .collect();
        let label = format!("serve/partitioned_batched/{}x{}", config.batch, threads);
        let served = (per_user * config.users) as u64;
        runner.bench_throughput(&label, served, || {
            std::thread::scope(|scope| {
                for (edge, requests) in &mut workers {
                    scope.spawn(move || {
                        let mut responses = Vec::new();
                        for user_requests in requests.chunks(per_user) {
                            for batch in user_requests.chunks(config.batch) {
                                responses.clear();
                                edge.serve_batch(batch, &mut responses);
                                std::hint::black_box(&responses);
                            }
                        }
                    });
                }
            })
        });
    }

    let measurements = runner.finish();
    let rows = measurements
        .into_iter()
        .map(|m| {
            let elements = m.elements.unwrap_or(1);
            // Rows use the fastest of the runner's samples: the stages are
            // deterministic and CPU-bound, so scheduler interference only
            // ever slows a sample down, and the minimum is the stable
            // statistic to track regressions (and speedup ratios) against.
            let per_request = m.min_ns_per_iter / elements as f64;
            let (batch, threads) = match m.label.as_str() {
                l if l.starts_with("serve/batched_cached") => (config.batch, 1),
                l if l.starts_with("serve/partitioned_batched") => (config.batch, threads),
                _ => (1, 1),
            };
            ServeRow {
                name: m.label,
                wall_ms: m.min_ns_per_iter * 1e-6,
                ns_per_request: per_request,
                requests_per_sec: elements as f64 / (m.min_ns_per_iter * 1e-9),
                batch,
                threads,
            }
        })
        .collect();
    Outcome { rows, telemetry: telemetry_pass(config, &frames) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_stages_report_positive_throughput_with_context() {
        let config = Config { users: 4, requests: 256, batch: 16, seed: 7, threads: 2 };
        let out = run(&config);
        assert_eq!(out.rows.len(), 4);
        for row in &out.rows {
            assert!(row.name.starts_with("serve/"), "{}", row.name);
            assert!(row.requests_per_sec > 0.0, "{}", row.name);
            assert!(row.ns_per_request > 0.0 && row.wall_ms > 0.0, "{}", row.name);
            assert!(row.batch >= 1 && row.threads >= 1, "{}", row.name);
        }
        assert_eq!(out.rows[1].batch, 16);
        assert_eq!(out.rows[3].threads, 2);
        assert!(out.batched_speedup().unwrap() > 0.0);
        let table = out.table();
        assert_eq!(table.len(), 4);

        // The untimed telemetry pass profiles the exact workload: every
        // request is a posterior cache hit, and the ledger holds one
        // budget spend per settled user.
        let metrics = out.telemetry.registry().snapshot();
        assert_eq!(metrics.counter("edge.location_requests"), Some(config.requests as u64));
        assert_eq!(metrics.counter("edge.posterior_cache_hits"), Some(config.requests as u64));
        assert_eq!(metrics.counter("edge.posterior_cache_misses"), Some(0));
        assert_eq!(out.telemetry.ledger().totals().candidate_sets, config.users as u64);
    }

    #[test]
    fn telemetry_pass_is_deterministic() {
        let config = Config { users: 3, requests: 96, batch: 8, seed: 21, threads: 1 };
        let frames = request_frames(&config);
        let a = telemetry_pass(&config, &frames).deterministic_json();
        let b = telemetry_pass(&config, &frames).deterministic_json();
        assert_eq!(a, b);
        assert!(a.contains("edge.location_requests"));
    }
}
