//! The `bench chaos` harness: seeded fault schedules driven through the
//! supervised shard serving path, with the surviving outputs checked
//! bit-for-bit against a fault-free run.
//!
//! Four fault families, each run at every shard count (1 and `threads`
//! shards, users partitioned round-robin across them):
//!
//! 1. `chaos/corruption/{T}` — seeded malformed frames (truncations, tag
//!    bit flips, trailing garbage) interleaved with the valid workload,
//!    plus one vandal client driven past the consecutive-malformed limit
//!    to exercise the ban path.
//! 2. `chaos/worker_kill/{T}` — seeded worker crashes at random request
//!    ordinals; every crash is caught by the supervisor, the device is
//!    restored from its last committed checkpoint, and the interrupted
//!    batch is retried.
//! 3. `chaos/mid_window_restart/{T}` — crashes placed *inside* open
//!    profile windows (between check-ins, before the window close), the
//!    schedule most likely to tempt an implementation into re-drawing
//!    candidates.
//! 4. `chaos/flood/{T}` — a tiny request queue under a concurrent client
//!    burst; requests are either served or shed with a structured
//!    [`TransportError::Overloaded`], never hung.
//!
//! For the three replayable families the harness replays the exact valid
//! request stream against a fresh fault-free server with the same seed
//! and asserts (a) every surviving response frame is byte-identical, (b)
//! the final device snapshots are byte-identical, and (c)
//! [`candidate_redraws`] between the two final snapshots is **zero** — a
//! crash never re-draws a released candidate set, which is the privacy
//! property the recovery log exists to protect (DESIGN.md §12).

use std::sync::Once;
use std::time::Instant;

use privlocad::protocol::{ClientRequest, EdgeResponse};
use privlocad::{
    candidate_redraws, BreakerConfig, BreakerEvent, ChannelFaultPlan, EdgeDevice, EdgeHandle,
    FabricError, FabricOptions, FabricRouter, FaultPlan, LaneOutage, RetryPolicy, ServedLocation,
    ServerOptions, ShardRouter, SystemConfig, TransportError,
};
use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_telemetry::{top_key, Telemetry, TopKey};
use rand::rngs::StdRng;
use rand::Rng;

use crate::report::Table;

/// Chaos-harness parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Fleet size, partitioned round-robin across the shard servers.
    pub users: usize,
    /// Check-ins per user before its window close.
    pub checkins: usize,
    /// Ad requests per user after its window close.
    pub requests: usize,
    /// Injected worker crashes per shard in the kill scenarios.
    pub kills: usize,
    /// Corrupted frames injected per shard in the corruption scenario.
    pub corruptions: usize,
    /// Master seed; every schedule and device RNG is derived from it.
    pub seed: u64,
    /// Upper shard count; scenarios run at 1 and `threads` shards.
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            users: 8,
            checkins: 12,
            requests: 16,
            kills: 3,
            corruptions: 8,
            seed: 0,
            threads: 2,
        }
    }
}

/// One chaos scenario's outcome.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Scenario label, `chaos/...`.
    pub name: String,
    /// Wall-clock for the whole scenario (drive + replay + asserts).
    pub wall_ms: f64,
    /// Faults injected: worker kills, corrupted frames, or (for the flood
    /// scenario) overload rejections observed.
    pub faults_injected: u64,
    /// Valid requests that received a correct response despite the faults.
    pub requests_survived: u64,
    /// Supervised worker restarts across every shard.
    pub restarts: u64,
    /// Fastest observed decode+restore of the final recovery checkpoint,
    /// in nanoseconds (0 for the flood scenario, which never crashes).
    pub recovery_ns: f64,
    /// Stale duplicate deliveries the fabric injected on the wire (0 for
    /// the channel-level scenarios, which have no faulty link).
    pub duplicates_injected: u64,
    /// Duplicate deliveries the shards' dedup windows replayed from
    /// cache instead of re-applying — exactly-once demands this equals
    /// `duplicates_injected`.
    pub duplicates_suppressed: u64,
    /// Circuit-breaker transitions (open / probe / close / reopen)
    /// recorded by the fabric's deterministic trace.
    pub breaker_transitions: u64,
    /// Reads answered from the bounded stale-cache of last *released*
    /// obfuscated locations while a breaker was open.
    pub degraded_serves: u64,
    /// Calls that exhausted their transmission budget on a dead wire.
    pub deadline_misses: u64,
    /// Shard servers the fleet was partitioned across.
    pub threads: usize,
    /// The scenario's telemetry hub, shared by its faulty shard servers
    /// (the fault-free replay servers publish elsewhere — same seeds would
    /// double-record every budget spend). Already audited: the run asserts
    /// [`privlocad_telemetry::Ledger::assert_no_double_spend`] against the
    /// union of the final shard snapshots before returning.
    pub telemetry: Telemetry,
}

/// The full chaos-harness result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// One row per (scenario, shard count), in execution order.
    pub rows: Vec<ChaosRow>,
}

impl Outcome {
    /// Renders the summary table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "chaos: seeded faults over the supervised serving path",
            &[
                "scenario",
                "shards",
                "faults",
                "survived",
                "restarts",
                "dups",
                "degraded",
                "recovery µs",
            ],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.name.clone(),
                row.threads.to_string(),
                row.faults_injected.to_string(),
                row.requests_survived.to_string(),
                row.restarts.to_string(),
                format!("{}/{}", row.duplicates_suppressed, row.duplicates_injected),
                row.degraded_serves.to_string(),
                format!("{:.1}", row.recovery_ns * 1e-3),
            ]);
        }
        table
    }
}

/// The fault family a scenario injects while driving the valid workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultMix {
    /// Corrupted frames + one vandal client driven into the ban.
    Corruption,
    /// Worker kills at seeded random request ordinals.
    WorkerKill,
    /// Worker kills placed inside open profile windows.
    MidWindowRestart,
}

impl FaultMix {
    fn label(self) -> &'static str {
        match self {
            FaultMix::Corruption => "corruption",
            FaultMix::WorkerKill => "worker_kill",
            FaultMix::MidWindowRestart => "mid_window_restart",
        }
    }
}

/// What one shard reports back after its faulty run + fault-free replay.
/// Restart counts are *not* here: the shards share one scenario hub, so
/// restarts are read once, hub-wide, from the `server.restarts` counter.
struct ShardReport {
    faults: u64,
    kills: u64,
    survived: u64,
    recovery_ns: f64,
    /// Every `(user, top)` with a released candidate set in the shard's
    /// final snapshot — the live-set input to the scenario's ledger audit.
    released: Vec<(u64, TopKey)>,
}

/// The same deterministic home grid the serving benchmark uses.
fn home_of(user: usize) -> Point {
    Point::new((user % 1_000) as f64 * 2_000.0, (user / 1_000) as f64 * 2_000.0)
}

/// Swallows the supervisor's own injected-fault panics (they are caught
/// and recovered, but the default hook would still spam stderr with a
/// backtrace per kill); every other panic keeps the previous hook.
fn quiet_injected_faults() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|message| message.contains("injected fault"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Produces a frame guaranteed not to decode: every [`ClientRequest`]
/// layout is fixed-size, so a truncation, a tag flip (landing on a tag
/// with a different size, or no tag at all), or a trailing byte all fail
/// the strict decoder.
fn corrupt_frame(rng: &mut StdRng, template: &ClientRequest) -> Vec<u8> {
    let mut bytes = template.encode().to_vec();
    match rng.gen_range(0..3u32) {
        0 => {
            let cut = rng.gen_range(0..bytes.len());
            bytes.truncate(cut);
        }
        1 => bytes[0] ^= 1 << rng.gen_range(0..8u32),
        _ => bytes.push(rng.gen()),
    }
    bytes
}

/// The per-shard kill schedule for a fault mix, as request ordinals on
/// the server's fault-plan clock (successfully decoded non-shutdown
/// requests; corrupted frames never advance it, so the ordinal of a valid
/// request equals its position in the valid stream).
fn kill_schedule(mix: FaultMix, config: &Config, shard_seed: u64, shard_users: usize) -> Vec<u64> {
    let ops_per_user = (config.checkins + 1 + config.requests) as u64;
    let total_ops = shard_users as u64 * ops_per_user;
    match mix {
        FaultMix::Corruption => Vec::new(),
        FaultMix::WorkerKill => {
            let mut rng = seeded(derive_seed(shard_seed, 0xdead));
            (0..config.kills)
                .filter(|_| total_ops > 0)
                .map(|_| rng.gen_range(0..total_ops))
                .collect()
        }
        // One kill per user (up to the budget), landed mid check-in phase:
        // the window is open, its buffer is non-empty, and the candidate
        // draw for the eventual close is still in the RNG's future.
        FaultMix::MidWindowRestart => (0..config.kills.min(shard_users))
            .map(|k| k as u64 * ops_per_user + (config.checkins as u64) / 2)
            .collect(),
    }
}

/// Drives one shard's valid workload through a supervised server while
/// injecting `mix`, then replays the identical stream on a fault-free
/// server and asserts byte-identical responses, byte-identical final
/// snapshots, and zero candidate re-draws.
fn drive_shard(
    config: &Config,
    mix: FaultMix,
    shard: usize,
    shards: usize,
    hub: &Telemetry,
) -> ShardReport {
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let shard_seed = derive_seed(config.seed, 0xc4a0_5000 + shard as u64);
    let users: Vec<usize> = (shard..config.users).step_by(shards).collect();

    let plan = FaultPlan::kill_at(kill_schedule(mix, config, shard_seed, users.len()));
    let kills = plan.remaining() as u64;
    // A one-shard router on the shard's own seed: every user routes to
    // its one shard.
    let router = ShardRouter::spawn_with(
        sys,
        shard_seed,
        vec![ServerOptions {
            fault_plan: plan,
            telemetry: hub.clone(),
            ..ServerOptions::default()
        }],
    );
    let handle = router.handle(UserId::new(0));

    let corruptions = if mix == FaultMix::Corruption { config.corruptions } else { 0 };
    let total_ops = users.len() * (config.checkins + 1 + config.requests);
    let corrupt_every = total_ops.checked_div(corruptions).unwrap_or(usize::MAX).max(1);
    let mut corrupt_rng = seeded(derive_seed(shard_seed, 0xbad));
    let mut faults = kills;

    // The valid stream and its observed response frames, for the replay.
    let mut transcript: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut op = 0usize;
    let exchange =
        |handle: &EdgeHandle, request: ClientRequest, transcript: &mut Vec<(Vec<u8>, Vec<u8>)>| {
            let frame = request.encode().to_vec();
            let response = handle
                .call_raw(&frame)
                .unwrap_or_else(|e| panic!("valid request must survive the faults: {e}"));
            transcript.push((frame, response.encode().to_vec()));
        };

    for &u in &users {
        let user = UserId::new(u as u32);
        let home = home_of(u);
        for t in 0..config.checkins + 1 + config.requests {
            if op.is_multiple_of(corrupt_every) && faults - kills < corruptions as u64 {
                // Each corrupted frame comes from a *fresh* client clone,
                // so strikes never accumulate into a ban here (the vandal
                // below covers that path) and the valid stream is never
                // collateral damage.
                let polluter = handle.clone();
                let template = ClientRequest::CheckIn { user, location: home, timestamp: t as i64 };
                match polluter.call_raw(corrupt_frame(&mut corrupt_rng, &template)) {
                    Err(TransportError::Malformed { .. }) => faults += 1,
                    other => panic!("corrupted frame must be rejected, got {other:?}"),
                }
            }
            let request = if t < config.checkins {
                ClientRequest::CheckIn { user, location: home, timestamp: t as i64 }
            } else if t == config.checkins {
                ClientRequest::FinalizeWindow { user }
            } else {
                ClientRequest::RequestLocation { user, location: home }
            };
            exchange(handle, request, &mut transcript);
            op += 1;
        }
    }

    if mix == FaultMix::Corruption {
        // A vandal spamming garbage until the server drops it: its first
        // frame bounces with the strikes it has left, each later one
        // counts down, and the one at the limit closes the vandal's
        // channel (observed as Disconnected).
        let vandal = handle.clone();
        let mut strikes_left = match vandal.call_raw(vec![0xEE; 4]) {
            Err(TransportError::Malformed { strikes_left }) => strikes_left,
            other => panic!("the vandal's first strike should bounce, got {other:?}"),
        };
        faults += 1;
        while strikes_left > 0 {
            let outcome = vandal.call_raw(vec![0xEE; 4]);
            faults += 1;
            strikes_left -= 1;
            let expected = if strikes_left > 0 {
                TransportError::Malformed { strikes_left }
            } else {
                TransportError::Disconnected
            };
            assert_eq!(outcome, Err(expected), "vandal strikes count down to the ban");
        }
    }

    router.shutdown().expect("faulty server must still shut down cleanly");
    let faulty = router.join().expect("supervised worker must survive its schedule").remove(0);
    let faulty_snap = faulty.snapshot();
    // (The kill-equals-restart check moved to the scenario level: health
    // counters are hub-wide now that the shards share one hub.)

    // Fault-free replay of the identical valid stream, same seed. The
    // replay server gets a *private* hub: with identical seeds it re-draws
    // every candidate set, which a shared ledger would read as a double
    // spend.
    let clean_router = ShardRouter::spawn_with(sys, shard_seed, vec![ServerOptions::default()]);
    for (request_frame, response_frame) in &transcript {
        let response = clean_router
            .handle(UserId::new(0))
            .call_raw(request_frame)
            .expect("fault-free replay must serve every request");
        assert_eq!(
            response.encode().as_ref(),
            response_frame.as_slice(),
            "a surviving response diverged from the fault-free run"
        );
    }
    clean_router.shutdown().expect("replay shutdown");
    let clean = clean_router.join().expect("fault-free server cannot fail").remove(0);
    assert_eq!(
        candidate_redraws(&clean.snapshot(), &faulty_snap).expect("snapshots are well-formed"),
        0,
        "a crash-restore cycle re-drew a released candidate set"
    );
    let encoded = faulty.checkpoint();
    assert_eq!(
        encoded,
        clean.checkpoint(),
        "final device state must match the fault-free run bit-for-bit"
    );

    // Time the recovery path itself on the final checkpoint: decode the
    // versioned checksummed log and rebuild a device from it, through the
    // same zero-copy pooled path the supervisor takes.
    let mut recovery_ns = f64::INFINITY;
    for _ in 0..8 {
        let start = Instant::now();
        let restored =
            EdgeDevice::restore_from_checkpoint(sys, &encoded).expect("checkpoint restores");
        let elapsed = start.elapsed().as_nanos() as f64;
        std::hint::black_box(&restored);
        recovery_ns = recovery_ns.min(elapsed.max(1.0));
    }

    let released = faulty_snap
        .released_sets()
        .expect("final snapshot decodes")
        .into_iter()
        .map(|(user, top)| (u64::from(user.raw()), top_key(top.x, top.y)))
        .collect();
    ShardReport { faults, kills, survived: transcript.len() as u64, recovery_ns, released }
}

/// Runs one replayable fault family at one shard count: the shards share
/// one telemetry hub, and the scenario closes with two hub-level checks —
/// every injected kill was exactly one supervised restart, and the
/// privacy-budget ledger audits clean against the union of the final
/// shard snapshots (no double spend, no unledgered release).
fn replayed_scenario(config: &Config, mix: FaultMix, shards: usize) -> ChaosRow {
    let start = Instant::now();
    let hub = Telemetry::new();
    let reports: Vec<ShardReport> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..shards)
            .map(|shard| {
                let hub = &hub;
                scope.spawn(move || drive_shard(config, mix, shard, shards, hub))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("shard thread")).collect()
    });

    let kills: u64 = reports.iter().map(|r| r.kills).sum();
    let restarts = hub
        .registry()
        .snapshot()
        .counter("server.restarts")
        .expect("shared hub carries the restart counter");
    assert_eq!(restarts, kills, "every injected kill is exactly one supervised restart");
    let live: Vec<(u64, TopKey)> =
        reports.iter().flat_map(|r| r.released.iter().copied()).collect();
    hub.ledger()
        .assert_no_double_spend(live)
        .expect("a crash-restore cycle double-spent (or failed to ledger) a privacy budget");

    ChaosRow {
        name: format!("chaos/{}/{shards}", mix.label()),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        faults_injected: reports.iter().map(|r| r.faults).sum(),
        requests_survived: reports.iter().map(|r| r.survived).sum(),
        restarts,
        recovery_ns: reports.iter().map(|r| r.recovery_ns).fold(f64::INFINITY, f64::min),
        duplicates_injected: 0,
        duplicates_suppressed: 0,
        breaker_transitions: 0,
        degraded_serves: 0,
        deadline_misses: 0,
        threads: shards,
        telemetry: hub,
    }
}

/// Floods a deliberately tiny request queue from a concurrent client
/// burst and asserts the backpressure contract: every request is either
/// served or shed with a structured `Overloaded` error — nothing hangs,
/// and the queue-depth gauge returns to zero.
fn flood_scenario(config: &Config, shards: usize) -> ChaosRow {
    let start = Instant::now();
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let seed = derive_seed(config.seed, 0xf100d + shards as u64);
    let hub = Telemetry::new();
    let router = ShardRouter::spawn_with(
        sys,
        seed,
        vec![ServerOptions {
            queue_capacity: 2,
            telemetry: hub.clone(),
            ..ServerOptions::default()
        }],
    );
    let handle = router.handle(UserId::new(0));

    let clients = (shards * 2).max(2);
    let per_client = (config.requests.max(1)) * 4;
    let policy = RetryPolicy { max_attempts: 5, backoff_base: 8, backoff_cap: 256 };
    let (mut served, mut shed) = (0u64, 0u64);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let user = UserId::new(c as u32);
                    let home = home_of(c);
                    let (mut served, mut shed) = (0u64, 0u64);
                    for t in 0..per_client {
                        let request =
                            ClientRequest::CheckIn { user, location: home, timestamp: t as i64 };
                        match handle.call_with_retry(request, &policy) {
                            Ok(EdgeResponse::Ack) => served += 1,
                            Err(TransportError::Overloaded) => shed += 1,
                            other => panic!("flood outcome must be Ack or Overloaded: {other:?}"),
                        }
                    }
                    (served, shed)
                })
            })
            .collect();
        for worker in workers {
            let (ok, dropped) = worker.join().expect("flood client thread");
            served += ok;
            shed += dropped;
        }
    });

    router.shutdown().expect("flooded server must still shut down cleanly");
    let health = hub.registry().snapshot();
    router.join().expect("flooded server must not crash");
    assert_eq!(
        served + shed,
        (clients * per_client) as u64,
        "every flood request must resolve: served or structurally shed"
    );
    let depth = health.gauge("server.queue_depth");
    assert_eq!(depth, Some(0), "queue-depth gauge must return to zero");
    let overload_rejections = health.counter("server.overload_rejections").unwrap_or(0);
    assert!(
        overload_rejections >= shed,
        "every shed request burned at least one overload rejection"
    );

    ChaosRow {
        name: format!("chaos/flood/{shards}"),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        faults_injected: overload_rejections,
        requests_survived: served,
        restarts: health.counter("server.restarts").unwrap_or(0),
        recovery_ns: 0.0,
        duplicates_injected: 0,
        duplicates_suppressed: 0,
        breaker_transitions: 0,
        degraded_serves: 0,
        deadline_misses: 0,
        threads: shards,
        telemetry: hub,
    }
}

/// One fabric fleet run's partition-invariant witnesses.
struct FabricRun {
    /// Every served released location, in request order.
    reports: Vec<Point>,
    /// Sorted `(user, top)` pairs with a released candidate set in the
    /// final shard checkpoints.
    released: Vec<(u64, TopKey)>,
    stats: privlocad::FabricStats,
    restarts: u64,
    suppressed: u64,
    recovery_ns: f64,
    hub: Telemetry,
}

/// Drives the full valid workload through a [`FabricRouter`] over a
/// (possibly faulty) link, with seeded worker kills inside the
/// supervisor's restart budget when `kills` is set.
fn fabric_fleet(config: &Config, shards: usize, plan: ChannelFaultPlan, kills: bool) -> FabricRun {
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let hub = Telemetry::new();
    let ops_per_user = (config.checkins + 1 + config.requests) as u64;
    let kill_plans: Vec<FaultPlan> = if kills {
        (0..shards)
            .map(|s| {
                // Round-robin partition: shard `s` serves users ≡ s (mod
                // shards). Stripe the kill ordinals across the shard's own
                // request clock so they are distinct and all fire.
                let ops = (s..config.users).step_by(shards).count() as u64 * ops_per_user;
                let budget = (config.kills as u64).min(ops) as usize;
                if budget == 0 {
                    return FaultPlan::none();
                }
                let stripe = ops / budget as u64;
                let mut rng = seeded(derive_seed(derive_seed(config.seed, 0xfab1), s as u64));
                FaultPlan::kill_at(
                    (0..budget as u64).map(|k| k * stripe + rng.gen_range(0..stripe)),
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let expected_kills: u64 = kill_plans.iter().map(|p| p.remaining() as u64).sum();
    let fabric = FabricRouter::spawn(
        sys,
        derive_seed(config.seed, 0xfab0),
        FabricOptions {
            shards,
            fault_plan: plan,
            kill_plans,
            server: ServerOptions {
                telemetry: hub.clone(),
                max_restarts: (config.kills as u32).max(8),
                backoff_base: 1,
                backoff_cap: 1,
                ..ServerOptions::default()
            },
            ..FabricOptions::default()
        },
    );
    for t in 0..config.checkins {
        for u in 0..config.users {
            fabric
                .check_in(UserId::new(u as u32), home_of(u), t as i64)
                .expect("check-in must survive the faulty link");
        }
    }
    for u in 0..config.users {
        fabric.finalize_window(UserId::new(u as u32)).expect("window close must survive");
    }
    let mut reports = Vec::with_capacity(config.users * config.requests);
    for _ in 0..config.requests {
        for u in 0..config.users {
            match fabric
                .request_location(UserId::new(u as u32), home_of(u))
                .expect("ad request must survive")
            {
                ServedLocation::Fresh(p) => reports.push(p),
                ServedLocation::Degraded(_) => panic!("no breaker may open under masked faults"),
            }
        }
    }
    // Shutdown before reading the totals: delayed duplicate copies flush
    // there and the injected/suppressed accounting must cover them.
    fabric.shutdown().expect("fabric must shut down cleanly");
    let stats = fabric.stats();
    let devices = fabric.join().expect("every shard survives its schedule");
    let metrics = hub.registry().snapshot();
    let restarts = metrics.counter("server.restarts").unwrap_or(0);
    assert_eq!(restarts, expected_kills, "every injected kill is one supervised restart");

    let mut released = Vec::new();
    let mut recovery_ns = f64::INFINITY;
    for device in &devices {
        let snapshot = device.snapshot();
        for (user, top) in snapshot.released_sets().expect("final checkpoint decodes") {
            released.push((u64::from(user.raw()), top_key(top.x, top.y)));
        }
    }
    // Time the recovery path on the first shard's final checkpoint, same
    // as the channel-level scenarios.
    if let Some(device) = devices.first() {
        let encoded = device.checkpoint();
        for _ in 0..8 {
            let start = Instant::now();
            let restored =
                EdgeDevice::restore_from_checkpoint(sys, &encoded).expect("checkpoint restores");
            let elapsed = start.elapsed().as_nanos() as f64;
            std::hint::black_box(&restored);
            recovery_ns = recovery_ns.min(elapsed.max(1.0));
        }
    }
    released.sort();
    FabricRun {
        reports,
        released,
        stats,
        restarts,
        suppressed: metrics.counter("server.duplicates_suppressed").unwrap_or(0),
        recovery_ns,
        hub,
    }
}

/// The wire profile for the fabric survival sweep: drops, delayed
/// duplicates, and corruption together, every family masked.
fn fabric_plan(seed: u64) -> ChannelFaultPlan {
    ChannelFaultPlan {
        seed: derive_seed(seed, 0xfab2),
        drop_per_mille: 100,
        duplicate_per_mille: 200,
        duplicate_delay: 3,
        corrupt_per_mille: 80,
        outages: Vec::new(),
    }
}

/// One `chaos/fabric/{shards}` row: the faulty fleet at `shards` must
/// reproduce the fault-free single-shard reference bit-for-bit — same
/// served locations in the same order, same final released sets — while
/// every duplicate is suppressed and the ledger audits exactly-once.
fn fabric_scenario(config: &Config, clean: &FabricRun, shards: usize) -> ChaosRow {
    let start = Instant::now();
    let faulty = fabric_fleet(config, shards, fabric_plan(config.seed), true);
    assert!(faulty.stats.drops_injected > 0, "the plan must drop frames");
    assert!(faulty.stats.corruptions_injected > 0, "the plan must corrupt frames");
    assert!(faulty.stats.duplicates_injected > 0, "the plan must duplicate frames");
    assert_eq!(
        faulty.suppressed, faulty.stats.duplicates_injected,
        "every duplicate delivery must be replayed from the dedup window"
    );
    assert_eq!(faulty.stats.breaker_transitions, 0, "masked faults never trip a breaker");
    assert_eq!(faulty.stats.deadline_misses, 0, "retransmission must stay inside the budget");
    assert_eq!(
        faulty.reports, clean.reports,
        "served locations diverged from the fault-free single-shard run"
    );
    assert_eq!(
        faulty.released, clean.released,
        "released candidate sets diverged from the fault-free run"
    );
    faulty
        .hub
        .ledger()
        .assert_no_double_spend(faulty.released.clone())
        .expect("duplicates + restarts double-spent (or failed to ledger) a privacy budget");

    let ops = config.users as u64 * (config.checkins + 1 + config.requests) as u64;
    ChaosRow {
        name: format!("chaos/fabric/{shards}"),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        faults_injected: faulty.stats.drops_injected
            + faulty.stats.corruptions_injected
            + faulty.stats.duplicates_injected
            + faulty.restarts,
        requests_survived: ops,
        restarts: faulty.restarts,
        recovery_ns: faulty.recovery_ns,
        duplicates_injected: faulty.stats.duplicates_injected,
        duplicates_suppressed: faulty.suppressed,
        breaker_transitions: 0,
        degraded_serves: 0,
        deadline_misses: 0,
        threads: shards,
        telemetry: faulty.hub,
    }
}

/// One `chaos/degraded/{shards}` row: a scheduled outage on user 0's
/// lane walks the breaker through open → probe → reopen → close while
/// reads are served from the stale cache of *released* obfuscated
/// locations and writes fail closed; a second, permanently dead wire
/// exercises the transmission deadline.
fn degraded_scenario(config: &Config, shards: usize) -> ChaosRow {
    let start = Instant::now();
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let hub = Telemetry::new();
    let seed = derive_seed(config.seed, 0xdeca1);
    // Lane-0 ordinals: `checkins` check-ins, the window close, then one
    // released request — the outage starts right after it.
    let outage_from = config.checkins as u64 + 2;
    let fabric = FabricRouter::spawn(
        sys,
        seed,
        FabricOptions {
            shards,
            fault_plan: ChannelFaultPlan {
                seed,
                outages: vec![LaneOutage { lane: 0, from: outage_from, calls: 3 }],
                ..ChannelFaultPlan::none()
            },
            breaker: BreakerConfig { failure_threshold: 2, cooldown: 4, max_cooldown: 16 },
            server: ServerOptions { telemetry: hub.clone(), ..ServerOptions::default() },
            ..FabricOptions::default()
        },
    );
    for t in 0..config.checkins {
        for u in 0..config.users {
            fabric.check_in(UserId::new(u as u32), home_of(u), t as i64).expect("priming check-in");
        }
    }
    for u in 0..config.users {
        fabric.finalize_window(UserId::new(u as u32)).expect("priming window close");
    }
    let user = UserId::new(0);
    let mut fresh = Vec::new();
    match fabric.request_location(user, home_of(0)).expect("pre-outage release") {
        ServedLocation::Fresh(p) => fresh.push(p),
        ServedLocation::Degraded(_) => panic!("the breaker cannot be open yet"),
    }
    // The burst rides lane 0 only, so the breaker walk is identical at
    // every shard count. Writes while open must fail closed.
    let (mut degraded, mut write_rejections, mut outage_hits) = (0u64, 0u64, 0u64);
    for i in 0..24 {
        match fabric.request_location(user, home_of(0)) {
            Ok(ServedLocation::Fresh(p)) => fresh.push(p),
            Ok(ServedLocation::Degraded(p)) => {
                assert!(
                    fresh.contains(&p),
                    "a degraded serve leaked a point that was never released"
                );
                degraded += 1;
                if degraded == 1 {
                    // First observed open-breaker serve: a write now must
                    // be rejected, never half-applied against a shaky shard.
                    match fabric.check_in(user, home_of(0), i) {
                        Err(FabricError::Degraded { .. }) => write_rejections += 1,
                        other => panic!("a write while open must fail closed, got {other:?}"),
                    }
                }
            }
            Err(FabricError::Unreachable { .. }) => outage_hits += 1,
            Err(FabricError::Degraded { .. }) => {}
            Err(other) => panic!("unexpected burst outcome: {other}"),
        }
    }
    let stats = fabric.stats();
    let trace = fabric.trace();
    assert!(degraded > 0, "the open breaker must serve degraded reads");
    assert!(write_rejections > 0, "writes while open must be rejected");
    // `failure_threshold` calls open the breaker, and the first half-open
    // probe still lands inside the three-call outage before it passes.
    assert_eq!(outage_hits, 3, "threshold failures plus the failed probe");
    assert!(
        trace.iter().any(|e| matches!(e, BreakerEvent::Opened { .. })),
        "the outage must open the breaker: {trace:?}"
    );
    assert_eq!(
        trace.last(),
        Some(&BreakerEvent::Closed { shard: 0 }),
        "the breaker must close again once the outage passes: {trace:?}"
    );
    assert_eq!(stats.degraded_serves, degraded);
    fabric.shutdown().expect("fabric must shut down cleanly");
    let devices = fabric.join().expect("every shard survives");
    let mut released = Vec::new();
    for device in &devices {
        let snapshot = device.snapshot();
        for (user, top) in snapshot.released_sets().expect("final checkpoint decodes") {
            released.push((u64::from(user.raw()), top_key(top.x, top.y)));
        }
    }
    hub.ledger()
        .assert_no_double_spend(released)
        .expect("degraded serving double-spent (or failed to ledger) a privacy budget");

    // A permanently dead wire with a tiny transmission budget: calls must
    // fail with a structured deadline, never hang or retry forever.
    let dead_seed = derive_seed(seed, 0xdead);
    let dead = FabricRouter::spawn(
        sys,
        dead_seed,
        FabricOptions {
            shards: 1,
            fault_plan: ChannelFaultPlan {
                seed: dead_seed,
                drop_per_mille: 1_000,
                ..ChannelFaultPlan::none()
            },
            breaker: BreakerConfig { failure_threshold: 1, cooldown: 2, max_cooldown: 4 },
            call_budget: 2,
            ..FabricOptions::default()
        },
    );
    let mut deadline_misses = 0u64;
    for t in 0..3 {
        match dead.check_in(user, home_of(0), t) {
            Err(FabricError::DeadlineExceeded { .. }) => deadline_misses += 1,
            Err(FabricError::Degraded { .. }) => {}
            other => panic!("a dead wire must miss its deadline, got {other:?}"),
        }
    }
    let dead_stats = dead.stats();
    assert!(deadline_misses > 0, "the dead wire must burn its transmission budget");
    assert_eq!(dead_stats.deadline_misses, deadline_misses);
    dead.shutdown().expect("dead-wire fabric still shuts down");
    dead.join().expect("dead-wire shard survives");

    let ops = config.users as u64 * (config.checkins + 1) as u64 + 1 + fresh.len() as u64;
    ChaosRow {
        name: format!("chaos/degraded/{shards}"),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        faults_injected: stats.outage_failures + dead_stats.drops_injected,
        requests_survived: ops,
        restarts: 0,
        recovery_ns: 0.0,
        duplicates_injected: 0,
        duplicates_suppressed: 0,
        breaker_transitions: stats.breaker_transitions + dead_stats.breaker_transitions,
        degraded_serves: stats.degraded_serves,
        deadline_misses,
        threads: shards,
        telemetry: hub,
    }
}

/// Runs every channel-level fault family at shard counts 1 and
/// `config.threads`, then the fabric survival sweep at {1, 4, 16}
/// shards against one fault-free single-shard reference.
pub fn run(config: &Config) -> Outcome {
    quiet_injected_faults();
    let mut shard_counts = vec![1, config.threads.max(1)];
    shard_counts.dedup();
    let mut rows = Vec::new();
    for &shards in &shard_counts {
        for mix in [FaultMix::Corruption, FaultMix::WorkerKill, FaultMix::MidWindowRestart] {
            rows.push(replayed_scenario(config, mix, shards));
        }
        rows.push(flood_scenario(config, shards));
        rows.push(degraded_scenario(config, shards));
    }
    // The survival contract is cross-partition: one fault-free reference,
    // three faulty fleet widths, all bit-identical.
    let clean = fabric_fleet(config, 1, ChannelFaultPlan::none(), false);
    assert_eq!(clean.stats.duplicates_injected, 0);
    assert_eq!(clean.restarts, 0);
    for shards in [1, 4, 16] {
        rows.push(fabric_scenario(config, &clean, shards));
    }
    Outcome { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_survive_and_report_their_shape() {
        let config = Config {
            users: 4,
            checkins: 8,
            requests: 4,
            kills: 2,
            corruptions: 4,
            seed: 7,
            threads: 2,
        };
        let out = run(&config);
        let names: Vec<&str> = out.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "chaos/corruption/1",
                "chaos/worker_kill/1",
                "chaos/mid_window_restart/1",
                "chaos/flood/1",
                "chaos/degraded/1",
                "chaos/corruption/2",
                "chaos/worker_kill/2",
                "chaos/mid_window_restart/2",
                "chaos/flood/2",
                "chaos/degraded/2",
                "chaos/fabric/1",
                "chaos/fabric/4",
                "chaos/fabric/16",
            ]
        );
        let ops = (config.users * (config.checkins + 1 + config.requests)) as u64;
        for row in &out.rows {
            assert!(row.wall_ms > 0.0, "{}", row.name);
            assert!(row.duplicates_suppressed <= row.duplicates_injected, "{}", row.name);
            let metrics = row.telemetry.registry().snapshot();
            if row.name.starts_with("chaos/flood") {
                assert_eq!(row.restarts, 0, "{}", row.name);
            } else if row.name.starts_with("chaos/degraded") {
                // The outage walks the breaker and serves stale reads;
                // the dead wire misses its transmission deadline.
                assert_eq!(row.restarts, 0, "{}", row.name);
                assert!(row.degraded_serves > 0, "{}", row.name);
                assert!(row.breaker_transitions > 0, "{}", row.name);
                assert!(row.deadline_misses > 0, "{}", row.name);
                assert!(row.faults_injected > 0, "{}", row.name);
            } else if row.name.starts_with("chaos/fabric") {
                // The faulty-link sweep survives the full stream with
                // every duplicate suppressed and every kill restarted.
                assert_eq!(row.requests_survived, ops, "{}", row.name);
                assert!(row.duplicates_injected > 0, "{}", row.name);
                assert_eq!(row.duplicates_suppressed, row.duplicates_injected, "{}", row.name);
                assert!(row.restarts > 0, "{}", row.name);
                assert_eq!(row.breaker_transitions, 0, "{}", row.name);
                assert!(row.recovery_ns > 0.0, "{}", row.name);
            } else {
                // Replayable scenarios serve the full valid stream no
                // matter how it is sharded.
                assert_eq!(row.requests_survived, ops, "{}", row.name);
                assert!(row.faults_injected > 0, "{}", row.name);
                assert!(row.recovery_ns > 0.0, "{}", row.name);
                assert_eq!(
                    metrics.counter("server.requests"),
                    Some(ops),
                    "{}: hub request counter",
                    row.name
                );
            }
            if row.name.starts_with("chaos/worker_kill")
                || row.name.starts_with("chaos/mid_window_restart")
            {
                assert!(row.restarts > 0, "{}", row.name);
                assert_eq!(row.restarts, row.faults_injected, "{}", row.name);
            }
            // Every scenario carries an audited hub whose counters agree
            // with the row.
            if !row.name.starts_with("chaos/flood") {
                assert_eq!(
                    row.telemetry.ledger().totals().candidate_sets,
                    config.users as u64,
                    "{}: one budget spend per user",
                    row.name
                );
            }
            assert_eq!(
                metrics.counter("server.restarts").unwrap_or(0),
                row.restarts,
                "{}",
                row.name
            );
        }
        assert_eq!(out.table().len(), 13);
    }

    #[test]
    fn corrupt_frames_never_decode() {
        let mut rng = seeded(3);
        let template = ClientRequest::CheckIn {
            user: UserId::new(9),
            location: Point::new(10.0, 20.0),
            timestamp: 4,
        };
        for _ in 0..500 {
            let bytes = corrupt_frame(&mut rng, &template);
            assert!(ClientRequest::decode(&bytes).is_err(), "{bytes:02x?}");
        }
    }

    #[test]
    fn mid_window_schedule_lands_inside_open_windows() {
        let config = Config { kills: 3, ..Config::default() };
        let kills = kill_schedule(FaultMix::MidWindowRestart, &config, 1, 2);
        let ops_per_user = (config.checkins + 1 + config.requests) as u64;
        assert_eq!(kills.len(), 2);
        for (k, &ordinal) in kills.iter().enumerate() {
            let within = ordinal - k as u64 * ops_per_user;
            assert!(within < config.checkins as u64, "kill {ordinal} is not mid-window");
        }
    }
}
