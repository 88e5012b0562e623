//! The `bench auction` workload: the OpenRTB-lite bid pipeline end to
//! end, from the serving fleet to the longitudinal attacker.
//!
//! The pipeline under test is the live architecture (DESIGN.md §18): every
//! served ad request in the fleet's commit phase submits one OpenRTB-lite
//! bid request into a shared [`BidSink`]; [`BidExchange::pump`] drains the
//! sink in canonical `(device, seq)` order, runs each request through
//! radius targeting and the second-price auction with ledgered spend and
//! frequency caps, and appends the settled pair to a deterministic
//! [`BidExchangeLog`](privlocad_openrtb::BidExchangeLog) — the byte stream
//! the attacker ingests via
//! [`ExchangeObservations`].
//!
//! The workload drives one synthetic population through that pipeline and
//! checks four claims in one pass:
//!
//! 1. **Partition invariance** — the exchange-log digest is bit-identical
//!    at 1, 4 and 16 shards (per-user RNG streams + per-device wire
//!    sequence numbers).
//! 2. **Fault invariance** — a run with seeded worker kills on every shard
//!    settles the same digest: emission sits in the commit phase, so a
//!    killed request never emits and its retry emits exactly once.
//! 3. **Attack outcome** — Algorithm 1 run off the live exchange log, the
//!    attacker's only feed, lands in the defense regime.
//! 4. **Codec overhead** — decoding a bid request from its wire frame
//!    costs < 10 % of one request through a live shard (wire decode →
//!    supervised serve → commit → telemetry drain → response encode, run
//!    on the calling thread of pipelining clients over the client↔edge
//!    protocol),
//!    measured with interleaved samples so the ratio is taken under
//!    identical scheduling conditions.
//!
//! One `auction/exchange` row summarizes the run for `BENCH_repro.json`;
//! the `--bench-json` schema check refuses it without the decode cost,
//! auction throughput and the attacker column.

use std::sync::Arc;
use std::time::Instant;

use privlocad::replay::schedule;
use privlocad::{EdgeHandle, EdgeServer, FaultPlan, ServerOptions, ShardRouter, SystemConfig};
use privlocad_adnet::inventory::{generate, InventoryConfig};
use privlocad_adnet::{AdNetwork, BidExchange, Campaign, ServingPolicy};
use privlocad_attack::evaluation::{rank_distances, AttackStats};
use privlocad_attack::{DeobfuscationAttack, ExchangeObservations};
use privlocad_geo::rng::derive_seed;
use privlocad_mechanisms::NFoldGaussian;
use privlocad_mobility::{shanghai, PopulationConfig, UserId, UserTrace};
use privlocad_openrtb::{BidRequest, BidSink, DeviceId, PendingBid};
use privlocad_telemetry::Telemetry;

use crate::microbench::Runner;
use crate::report::{pct, Table};

/// Auction-benchmark parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Fleet size; each user replays a truncated synthetic trace.
    pub users: usize,
    /// Check-ins replayed per user (0 keeps the full two-year trace).
    pub checkins: usize,
    /// Radius-targeted campaigns in the marketplace.
    pub campaigns: usize,
    /// Seeded worker kills per shard in the fault-invariance run.
    pub kills: usize,
    /// Master seed; population, inventory, fleet and attack RNGs derive
    /// from it.
    pub seed: u64,
    /// Trimming confidence for Algorithm 1 (paper: α = 0.05).
    pub alpha: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config { users: 64, checkins: 160, campaigns: 400, kills: 2, seed: 0, alpha: 0.05 }
    }
}

/// The single `auction/exchange` summary row.
#[derive(Debug, Clone)]
pub struct AuctionRow {
    /// Row label, `auction/exchange`.
    pub name: String,
    /// Wall-clock of the whole workload (fleet runs + settle + attacks).
    pub wall_ms: f64,
    /// Settled auctions per second: decode + targeting + second-price +
    /// ledger + log append, over the full pending batch.
    pub auctions_per_sec: f64,
    /// Nanoseconds to decode one bid request from its wire frame.
    pub decode_ns_per_req: f64,
    /// Decode cost as a percentage of one request through a live shard —
    /// the codec acceptance gate holds this under 10 %.
    pub serve_overhead_pct: f64,
    /// Total second-price revenue settled, in integer micro-CPM units.
    pub revenue_micros: u64,
    /// Top-1 attack success within 500 m off the live exchange log.
    pub attack_success_live: f64,
    /// Users driven through the fleet.
    pub users: usize,
    /// Bid requests emitted (one per served ad request).
    pub requests: usize,
    /// Widest clean fleet the digest was checked at.
    pub shards: usize,
    /// Exchange-log digest (identical across every fleet width and the
    /// faulted run).
    pub digest: String,
}

/// The full auction-benchmark result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The summary row.
    pub row: AuctionRow,
    /// `(label, digest)` per fleet run, clean widths first then the
    /// faulted run — all identical by construction (asserted in [`run`]).
    pub digests: Vec<(String, String)>,
    /// Auctions won out of `row.requests`.
    pub wins: u64,
    /// Supervised restarts observed in the faulted run.
    pub restarts: u64,
    /// The exchange's telemetry hub (`rtb.*` counters from the settled
    /// clean run), exported next to the BENCH rows.
    pub telemetry: Telemetry,
}

impl Outcome {
    /// Renders the summary table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "auction: OpenRTB-lite pipeline, fleet to attacker",
            &["row", "auctions/s", "decode ns/req", "overhead", "revenue µ", "attack"],
        );
        table.push_row(vec![
            self.row.name.clone(),
            format!("{:.0}", self.row.auctions_per_sec),
            format!("{:.1}", self.row.decode_ns_per_req),
            format!("{:.2}%", self.row.serve_overhead_pct),
            self.row.revenue_micros.to_string(),
            pct(self.row.attack_success_live),
        ]);
        table
    }

    /// Whether every fleet run (all widths, clean and faulted) settled the
    /// identical exchange log.
    pub fn digests_agree(&self) -> bool {
        let digests: Vec<&str> = self.digests.iter().map(|(_, d)| d.as_str()).collect();
        digests.windows(2).all(|w| w[0] == w[1])
    }
}

/// The truncated synthetic population the fleet replays.
fn traces(config: &Config) -> Vec<UserTrace> {
    let population = PopulationConfig::builder().num_users(config.users).seed(config.seed).build();
    (0..config.users)
        .map(|i| {
            let mut trace = population.generate_user(i as u32);
            if config.checkins > 0 {
                trace.checkins.truncate(config.checkins);
            }
            trace
        })
        .collect()
}

/// The marketplace: radius-targeted campaigns scattered over the study
/// area, each under a budget and a per-device frequency cap so the
/// ledgered eligibility paths are live.
fn marketplace(config: &Config) -> (Vec<Campaign>, ServingPolicy) {
    let inventory = InventoryConfig { count: config.campaigns, ..InventoryConfig::default() };
    let campaigns = generate(
        &inventory,
        shanghai::bounding_box(),
        &shanghai::projection(),
        derive_seed(config.seed, 0xad5),
    );
    (campaigns, ServingPolicy::unlimited().with_budget(200.0).with_frequency_cap(24))
}

/// Serving operations one trace sends a shard: its request
/// [`schedule`] — the shard's fault-plan clock ticks once per operation.
fn ops_of(trace: &UserTrace, window_days: u32) -> u64 {
    schedule(trace, window_days).count() as u64
}

/// Drives the population through a fleet of `shards` serving shards, every
/// shard submitting into one shared [`BidSink`]. With `kills > 0` each
/// shard's supervisor additionally executes that many seeded worker kills
/// spread across its operation stream. Returns the drained pending batch
/// and the observed restart count.
fn fleet_pending(
    config: &Config,
    traces: &[UserTrace],
    shards: usize,
    kills: usize,
) -> (Vec<PendingBid>, u64) {
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let sink = Arc::new(BidSink::new());
    let hub = Telemetry::new();
    let options = (0..shards)
        .map(|s| {
            let shard_ops: u64 = traces
                .iter()
                .filter(|t| t.user.raw() as usize % shards == s)
                .map(|t| ops_of(t, sys.window_days()))
                .sum();
            let budget = (kills as u64).min(shard_ops) as usize;
            let fault_plan = if budget == 0 {
                FaultPlan::none()
            } else {
                // Evenly spread kill ordinals, each jittered inside its
                // stripe — deterministic per (seed, shard).
                let stripe = shard_ops / budget as u64;
                use rand::Rng;
                let mut rng = privlocad_geo::rng::seeded(derive_seed(
                    derive_seed(config.seed, 0xa0c7_0111),
                    s as u64,
                ));
                FaultPlan::kill_at(
                    (0..budget as u64).map(|k| k * stripe + rng.gen_range(0..stripe)),
                )
            };
            ServerOptions {
                telemetry: hub.clone(),
                bid_sink: Some(Arc::clone(&sink)),
                fault_plan,
                max_restarts: (kills as u32).max(8),
                backoff_base: 1,
                backoff_cap: 1,
                ..ServerOptions::default()
            }
        })
        .collect();
    let router = ShardRouter::spawn_with(sys, derive_seed(config.seed, 0xf1ee7), options);
    for trace in traces {
        let shard = router.handle(trace.user);
        for request in schedule(trace, sys.window_days()) {
            shard.call(request).expect("every scheduled request survives the fleet");
        }
    }
    router.shutdown().expect("fleet shuts down cleanly");
    router.join().expect("every shard survives its schedule");
    let restarts = hub.registry().snapshot().counter("server.restarts").unwrap_or(0);
    (sink.drain(), restarts)
}

/// Settles an already-drained batch against a fresh marketplace.
fn settle(campaigns: &[Campaign], policy: ServingPolicy, pending: &[PendingBid]) -> BidExchange {
    let mut network = AdNetwork::new(campaigns.to_vec());
    for campaign in campaigns {
        network.set_policy(campaign.id(), policy);
    }
    let mut exchange = BidExchange::new(network);
    exchange.pump_pending(pending).expect("sink frames decode");
    exchange
}

/// Top-1 attack success within `threshold_m`, aggregated over the
/// population, off the attacker's observations of the exchange.
fn attack_success(
    config: &Config,
    traces: &[UserTrace],
    threshold_m: f64,
    observations: &ExchangeObservations,
) -> f64 {
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let gaussian = NFoldGaussian::new(sys.geo_ind());
    let attack = DeobfuscationAttack::for_gaussian(&gaussian, config.alpha)
        .expect("valid trimming confidence");
    let mut stats = AttackStats::new(1);
    for trace in traces {
        let device = DeviceId::new(u64::from(trace.user.raw()));
        let inferred = observations.infer_top_locations(&attack, device, 1);
        let d = rank_distances(&inferred, &trace.truth.top_locations[..1]);
        stats.record(&d);
    }
    stats.success_rate(0, threshold_m)
}

/// The serve-path baseline the codec gate is taken against: a live
/// supervised shard — wire decode, supervised serve with its undo save,
/// commit, telemetry drain, response encode, all run on the calling
/// thread — driven over the client↔edge protocol by pipelining clients,
/// the exact path every bid-emitting ad request rides. Returns the
/// settled shard plus the prebuilt ad-request targets the timed closure
/// replays.
fn serve_baseline(seed: u64) -> (EdgeServer, EdgeHandle, Vec<(UserId, privlocad_geo::Point)>) {
    const USERS: usize = 16;
    const REQUESTS: usize = 4_096;
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let (server, handle) = EdgeServer::spawn(sys, seed);
    let home = |u: usize| privlocad_geo::Point::new(u as f64 * 2_000.0, 0.0);
    for u in 0..USERS {
        let user = UserId::new(u as u32);
        for t in 0..12 {
            handle.check_in(user, home(u), t).expect("baseline check-in is served");
        }
        handle.finalize_window(user).expect("baseline window closes");
    }
    let targets =
        (0..REQUESTS).map(|i| (UserId::new((i % USERS) as u32), home(i % USERS))).collect();
    (server, handle, targets)
}

/// Runs the full pipeline and returns the summary row.
pub fn run(config: &Config) -> Outcome {
    let started = Instant::now();
    let traces = traces(config);
    let (campaigns, policy) = marketplace(config);

    // Clean fleet runs at three widths plus the faulted run — every one
    // must settle the identical exchange log.
    let mut digests: Vec<(String, String)> = Vec::new();
    let mut reference: Option<(Vec<PendingBid>, BidExchange)> = None;
    for shards in [1usize, 4, 16] {
        let (pending, restarts) = fleet_pending(config, &traces, shards, 0);
        assert_eq!(restarts, 0, "a clean run must not restart");
        let exchange = settle(&campaigns, policy, &pending);
        digests
            .push((format!("auction/clean/{shards}"), format!("{:016x}", exchange.log().digest())));
        if reference.is_none() {
            reference = Some((pending, exchange));
        }
    }
    let (pending, exchange) = reference.expect("the 1-shard run is always the reference");
    let expected_kills: u64 = {
        let sys = SystemConfig::builder().build().expect("default config is valid");
        (0..4u64)
            .map(|s| {
                let ops: u64 = traces
                    .iter()
                    .filter(|t| t.user.raw() as u64 % 4 == s)
                    .map(|t| ops_of(t, sys.window_days()))
                    .sum();
                (config.kills as u64).min(ops)
            })
            .sum()
    };
    let (faulted_pending, restarts) = fleet_pending(config, &traces, 4, config.kills);
    assert_eq!(restarts, expected_kills, "every injected kill is one supervised restart");
    let faulted = settle(&campaigns, policy, &faulted_pending);
    digests.push(("auction/faulted/4".to_owned(), format!("{:016x}", faulted.log().digest())));
    for window in digests.windows(2) {
        assert_eq!(
            window[0].1, window[1].1,
            "exchange logs diverged between {} and {}",
            window[0].0, window[1].0
        );
    }

    // Algorithm 1 off the live exchange log.
    let observations = ExchangeObservations::from_log(exchange.log());
    let live = attack_success(config, &traces, 500.0, &observations);

    // Timing. The decode cost and its serve-path baseline are sampled
    // interleaved: their ratio is the acceptance gate. The baseline drives
    // a live shard with two pipelining clients, so each sample pays the
    // whole per-request path (lock hand-over, wire decode, supervised
    // serve with its undo save, commit, telemetry drain, response encode)
    // — the cost a bid-request decode would actually be riding on.
    let mut runner = Runner::new();
    {
        let (server, handle, targets) = serve_baseline(derive_seed(config.seed, 0x5e12e));
        let served = targets.len() as u64;
        let decoded_requests = pending.len() as u64;
        runner.bench_throughput_paired(
            ("auction/serve_baseline", served, &mut || {
                let mut sink = 0usize;
                std::thread::scope(|scope| {
                    let clients: Vec<_> = targets
                        .chunks(targets.len().div_ceil(2))
                        .map(|chunk| {
                            let handle = handle.clone();
                            scope.spawn(move || {
                                for &(user, location) in chunk {
                                    handle
                                        .request_location(user, location)
                                        .expect("live serve path stays up");
                                }
                                chunk.len()
                            })
                        })
                        .collect();
                    for client in clients {
                        sink += client.join().expect("client thread finishes");
                    }
                });
                sink
            }),
            ("auction/decode", decoded_requests, &mut || {
                let mut sink = 0u64;
                for p in &pending {
                    let (request, _) =
                        BidRequest::decode_slice(&p.frame).expect("sink frames decode");
                    sink = sink.wrapping_add(request.id);
                }
                sink
            }),
        );
        handle.shutdown().expect("baseline shard shuts down");
        server.join().expect("baseline shard stops cleanly");
    }
    let auctions = pending.len() as u64;
    runner.bench_throughput("auction/settle", auctions, || {
        settle(&campaigns, policy, &pending).log().revenue_micros()
    });
    let measurements = runner.finish();
    let per_req = |label: &str| {
        let m = measurements.iter().find(|m| m.label == label).expect("every stage was measured");
        m.min_ns_per_iter / m.elements.unwrap_or(1) as f64
    };
    let serve_ns = per_req("auction/serve_baseline");
    let decode_ns = per_req("auction/decode");
    let settle_ns = per_req("auction/settle");

    let telemetry = Telemetry::new();
    let mut exchange = exchange;
    exchange.drain_telemetry(&telemetry);
    let wins = exchange.log().wins() as u64;

    let row = AuctionRow {
        name: "auction/exchange".to_owned(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        auctions_per_sec: 1e9 / settle_ns,
        decode_ns_per_req: decode_ns,
        serve_overhead_pct: (decode_ns / serve_ns * 100.0).max(0.0),
        revenue_micros: exchange.log().revenue_micros(),
        attack_success_live: live,
        users: config.users,
        requests: pending.len(),
        shards: 16,
        digest: digests[0].1.clone(),
    };
    Outcome { row, digests, wins, restarts, telemetry }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config { users: 6, checkins: 40, campaigns: 60, kills: 1, seed: 11, ..Config::default() }
    }

    #[test]
    fn pipeline_settles_identically_across_widths_and_faults() {
        let out = run(&small());
        assert_eq!(out.digests.len(), 4);
        assert!(out.digests_agree(), "{:?}", out.digests);
        assert_eq!(out.row.digest, out.digests[0].1);
        assert!(out.restarts > 0, "the faulted run must actually kill workers");
        assert!(out.row.requests > 0);
        assert!(out.wins > 0, "the marketplace must win some auctions");
        assert!(out.row.revenue_micros > 0);
        assert!(out.row.auctions_per_sec > 0.0);
        assert!(out.row.decode_ns_per_req > 0.0);
        assert!(out.row.serve_overhead_pct >= 0.0);
        assert!((0.0..=1.0).contains(&out.row.attack_success_live));
        let metrics = out.telemetry.registry().snapshot();
        assert_eq!(metrics.counter("rtb.bid_requests"), Some(out.row.requests as u64));
        assert_eq!(metrics.counter("rtb.bids_won"), Some(out.wins));
        assert_eq!(out.table().len(), 1);
    }

    #[test]
    fn op_clock_matches_the_drive_loop() {
        let config = small();
        let all = traces(&config);
        let sys = SystemConfig::builder().build().unwrap();
        for trace in &all {
            // Two ops per check-in plus however many window closes fire.
            let ops = ops_of(trace, sys.window_days());
            assert!(ops >= 2 * trace.checkins.len() as u64);
        }
    }
}
