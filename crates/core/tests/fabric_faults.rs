//! End-to-end contracts of the self-healing fabric (DESIGN.md §17):
//!
//! 1. **Exactly-once under duplication.** A duplicate-heavy link (plus
//!    drops and corruption) must leave device state digests, restart
//!    counts, and the privacy-budget ledger bit-identical to the
//!    fault-free run — every duplicated `check_in` / `finalize_window`
//!    delivery is suppressed by the shards' dedup windows.
//! 2. **Duplicates + per-shard restarts combined.** Worker crashes
//!    replay batches from checkpoints while the wire re-delivers
//!    frames; the ledger must still audit exactly-once.
//! 3. **Breaker determinism.** The breaker transition trace — open,
//!    probe, reopen, close, in order — is identical at 1, 4, and 16
//!    shards under the same master seed when the failure burst rides a
//!    single user's lane.

use privlocad::{
    BreakerConfig, BreakerEvent, ChannelFaultPlan, FabricOptions, FabricRouter, FaultPlan,
    LaneOutage, ServedLocation, ServerOptions, SystemConfig,
};
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_openrtb::fnv1a64;
use privlocad_telemetry::{top_key, Telemetry};

const USERS: u32 = 24;
const MASTER: u64 = 77;

fn config() -> SystemConfig {
    SystemConfig::builder().build().expect("default config is valid")
}

fn home_of(user: UserId) -> Point {
    Point::new(f64::from(user.raw()) * 5_000.0, -1_200.0)
}

fn chaos_plan(seed: u64) -> ChannelFaultPlan {
    ChannelFaultPlan {
        seed,
        drop_per_mille: 100,
        duplicate_per_mille: 300,
        duplicate_delay: 3,
        corrupt_per_mille: 100,
        outages: Vec::new(),
    }
}

struct FleetRun {
    reports: Vec<Point>,
    digests: Vec<u64>,
    restarts: u64,
    duplicates_injected: u64,
    duplicates_suppressed: u64,
    hub: Telemetry,
    released: Vec<(u64, privlocad_telemetry::TopKey)>,
}

/// Drives the standard workload (40 check-ins, one window close, four
/// location requests per user) through a fabric and collects every
/// witness the contracts compare.
fn run_fleet(shards: usize, plan: ChannelFaultPlan, kills: bool) -> FleetRun {
    let hub = Telemetry::new();
    let fabric = FabricRouter::spawn(
        config(),
        MASTER,
        FabricOptions {
            shards,
            fault_plan: plan,
            kill_plans: if kills {
                // One early crash per shard, well within the restart budget.
                (0..shards).map(|_| FaultPlan::kill_at([5])).collect()
            } else {
                Vec::new()
            },
            server: ServerOptions {
                telemetry: hub.clone(),
                backoff_base: 1,
                backoff_cap: 1,
                ..ServerOptions::default()
            },
            ..FabricOptions::default()
        },
    );
    let users: Vec<UserId> = (0..USERS).map(UserId::new).collect();
    for t in 0..40 {
        for &u in &users {
            fabric.check_in(u, home_of(u), t).expect("check-in survives the wire");
        }
    }
    for &u in &users {
        assert_eq!(fabric.finalize_window(u).expect("window close survives"), 1);
    }
    let mut reports = Vec::new();
    for _ in 0..4 {
        for &u in &users {
            match fabric.request_location(u, home_of(u)).expect("request survives") {
                ServedLocation::Fresh(p) => reports.push(p),
                ServedLocation::Degraded(_) => panic!("no breaker should open in this run"),
            }
        }
    }
    // Shutdown first: delayed duplicate copies flush there, and the
    // injected/suppressed totals must cover them.
    fabric.shutdown().expect("clean shutdown");
    let stats = fabric.stats();
    let devices = fabric.join().expect("every shard survives");
    let metrics = hub.registry().snapshot();
    assert_eq!(devices.iter().map(|d| d.user_count()).sum::<usize>(), USERS as usize);
    let mut released = Vec::new();
    for device in &devices {
        let snapshot = device.snapshot();
        for (user, top) in snapshot.released_sets().expect("final checkpoint is well-formed") {
            released.push((u64::from(user.raw()), top_key(top.x, top.y)));
        }
    }
    released.sort();
    let mut digests: Vec<u64> = devices.iter().map(|d| fnv1a64(&d.checkpoint())).collect();
    digests.sort_unstable();
    FleetRun {
        reports,
        digests,
        restarts: metrics.counter("server.restarts").unwrap_or(0),
        duplicates_injected: stats.duplicates_injected,
        duplicates_suppressed: metrics.counter("server.duplicates_suppressed").unwrap_or(0),
        hub,
        released,
    }
}

#[test]
fn exactly_once_under_duplication_matches_fault_free() {
    let clean = run_fleet(1, ChannelFaultPlan::none(), false);
    assert_eq!(clean.duplicates_injected, 0);
    let faulty = run_fleet(1, chaos_plan(MASTER), false);
    // Faults were really injected, and every duplicate was suppressed.
    assert!(faulty.duplicates_injected > 0, "the plan must inject duplicates");
    assert_eq!(faulty.duplicates_suppressed, faulty.duplicates_injected);
    // Device digests, outputs, and restart counts match the clean run.
    assert_eq!(faulty.reports, clean.reports);
    assert_eq!(faulty.digests, clean.digests);
    assert_eq!(faulty.restarts, clean.restarts);
    assert_eq!(faulty.restarts, 0);
    // The ledger audits exactly-once against the live candidate sets.
    assert_eq!(faulty.released.len(), USERS as usize);
    faulty
        .hub
        .ledger()
        .assert_no_double_spend(faulty.released.clone())
        .expect("duplicated deliveries must not double-spend");
    assert_eq!(faulty.hub.ledger().totals().candidate_sets, u64::from(USERS));
}

#[test]
fn ledger_audits_clean_under_duplicates_and_restarts_combined() {
    let clean = run_fleet(4, ChannelFaultPlan::none(), false);
    let stormy = run_fleet(4, chaos_plan(MASTER), true);
    assert!(stormy.duplicates_injected > 0);
    assert_eq!(stormy.restarts, 4, "one supervised crash per shard");
    // Checkpoint-exact restores + dedup windows: same outputs, same
    // final state, exactly-once budget spends.
    assert_eq!(stormy.reports, clean.reports);
    assert_eq!(stormy.digests, clean.digests);
    stormy
        .hub
        .ledger()
        .assert_no_double_spend(stormy.released.clone())
        .expect("duplicates + restarts must not double-spend");
    assert_eq!(stormy.hub.ledger().totals().candidate_sets, u64::from(USERS));
}

#[test]
fn duplication_survival_is_shard_count_invariant() {
    let one = run_fleet(1, chaos_plan(MASTER), false);
    let four = run_fleet(4, chaos_plan(MASTER), false);
    let sixteen = run_fleet(16, chaos_plan(MASTER), false);
    assert_eq!(one.reports, four.reports);
    assert_eq!(one.reports, sixteen.reports);
    // Lane-keyed fault draws: the injected and suppressed totals are
    // partition-invariant, not just the outputs.
    assert_eq!(one.duplicates_injected, four.duplicates_injected);
    assert_eq!(one.duplicates_injected, sixteen.duplicates_injected);
    assert_eq!(one.duplicates_suppressed, four.duplicates_suppressed);
    assert_eq!(one.duplicates_suppressed, sixteen.duplicates_suppressed);
}

/// Primes every user, then drives a failure burst and recovery strictly
/// through user 0's lane, returning the breaker transition trace.
fn breaker_trace(shards: usize) -> Vec<BreakerEvent> {
    // Outage: user 0's deliveries 42..45 fail (40 check-ins + finalize
    // + 1 released request precede it).
    let fabric = FabricRouter::spawn(
        config(),
        MASTER,
        FabricOptions {
            shards,
            fault_plan: ChannelFaultPlan {
                seed: MASTER,
                outages: vec![LaneOutage { lane: 0, from: 42, calls: 3 }],
                ..ChannelFaultPlan::none()
            },
            breaker: BreakerConfig { failure_threshold: 2, cooldown: 4, max_cooldown: 16 },
            ..FabricOptions::default()
        },
    );
    let users: Vec<UserId> = (0..12).map(UserId::new).collect();
    for t in 0..40 {
        for &u in &users {
            fabric.check_in(u, home_of(u), t).expect("priming check-in");
        }
    }
    for &u in &users {
        fabric.finalize_window(u).expect("priming window close");
    }
    let user = UserId::new(0);
    fabric.request_location(user, home_of(user)).expect("release one location");
    // Failure burst + recovery, all on lane 0 so the trace cannot
    // depend on which other lanes share shard 0.
    for _ in 0..24 {
        let _ = fabric.request_location(user, home_of(user));
    }
    let trace = fabric.trace();
    fabric.shutdown().expect("clean shutdown");
    fabric.join().expect("every shard survives");
    trace
}

#[test]
fn breaker_traces_are_identical_across_shard_counts() {
    let one = breaker_trace(1);
    assert!(
        one.contains(&BreakerEvent::Opened { shard: 0, failures: 2 }),
        "the outage must open the breaker: {one:?}"
    );
    assert_eq!(
        one.last(),
        Some(&BreakerEvent::Closed { shard: 0 }),
        "the breaker must close again after the outage: {one:?}"
    );
    assert_eq!(one, breaker_trace(4), "trace changed between 1 and 4 shards");
    assert_eq!(one, breaker_trace(16), "trace changed between 1 and 16 shards");
}
