//! The sharded fleet's headline contract, end to end: the same user
//! population served through a [`ShardRouter`] must produce **bit-identical**
//! outputs at 1, 4, and 16 shards — per-user reported locations (folded
//! into one order-insensitive FNV-1a digest) and the hub's deterministic
//! telemetry export — on the clean path *and* with one injected worker
//! crash per shard. Restores are exact (checkpoint-then-reply, staged
//! telemetry drained after the commit), so a fleet that takes 16 crashes
//! must publish the same export as one that took a single crash, and the
//! privacy-budget ledger must still audit exactly-once against the
//! candidate sets live in the final shard checkpoints. Restarts count
//! caught crashes, so they are scheduling-classed and sit outside the
//! export; the raw registry reads one per killed shard.

use privlocad::protocol::ClientRequest;
use privlocad::{FaultPlan, ServerOptions, ShardRouter, SystemConfig};
use privlocad_bench::scale::user_workload;
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_openrtb::{fnv1a64_extend, FNV1A64_OFFSET};
use privlocad_telemetry::{top_key, Telemetry, TopKey};

const USERS: u32 = 48;
const CHECKINS: usize = 6;
const MASTER: u64 = 7;

/// Check-ins and served requests of the whole workload, as the hub
/// counts them in `edge.checkins` and `server.requests`.
fn workload_counts() -> (usize, usize) {
    let ops: Vec<ClientRequest> =
        (0..USERS).flat_map(|u| user_workload(UserId::new(u), CHECKINS)).collect();
    let checkins = ops.iter().filter(|op| matches!(op, ClientRequest::CheckIn { .. })).count();
    (checkins, ops.len())
}

/// One user's contribution: id plus every reported coordinate, in the
/// user's own operation order. XOR-folding the per-user hashes makes the
/// fleet digest insensitive to how users interleave across shards.
fn user_digest(user: u32, reports: &[Point]) -> u64 {
    let mut hash = fnv1a64_extend(FNV1A64_OFFSET, &user.to_le_bytes());
    for report in reports {
        hash = fnv1a64_extend(hash, &report.x.to_bits().to_le_bytes());
        hash = fnv1a64_extend(hash, &report.y.to_bits().to_le_bytes());
    }
    hash
}

/// Drives the full workload through a router over `shards` shards sharing
/// one hub. With `kills`, every shard's worker is crashed once early in
/// its request stream (ordinal 3 — mid check-in phase of its first user),
/// so the fleet takes exactly `shards` crashes in total. Returns the
/// fleet output digest, the deterministic export, the hub, and the union
/// of released candidate sets decoded from the final shard checkpoints.
fn run_fleet(shards: usize, kills: bool) -> (u64, String, Telemetry, Vec<(u64, TopKey)>) {
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let hub = Telemetry::new();
    let options = (0..shards)
        .map(|_| ServerOptions {
            fault_plan: if kills { FaultPlan::kill_at(vec![3]) } else { FaultPlan::default() },
            telemetry: hub.clone(),
            ..ServerOptions::default()
        })
        .collect();
    let router = ShardRouter::spawn_with(sys, MASTER, options);
    let mut digest = 0u64;
    for u in 0..USERS {
        let user = UserId::new(u);
        let mut reports = Vec::new();
        for request in user_workload(user, CHECKINS) {
            match request {
                ClientRequest::CheckIn { location, timestamp, .. } => {
                    router.check_in(user, location, timestamp).expect("check-in survives");
                }
                ClientRequest::FinalizeWindow { .. } => {
                    router.finalize_window(user).expect("window close survives");
                }
                ClientRequest::RequestLocation { location, .. } => {
                    reports
                        .push(router.request_location(user, location).expect("request survives"));
                }
                other => panic!("unexpected workload op {other:?}"),
            }
        }
        assert!(!reports.is_empty(), "workload must include location requests");
        digest ^= user_digest(u, &reports);
    }
    router.shutdown().expect("clean shutdown");
    let devices = router.join().expect("every shard survives its schedule");
    assert_eq!(devices.len(), shards);
    assert_eq!(devices.iter().map(|d| d.user_count()).sum::<usize>(), USERS as usize);
    let mut released = Vec::new();
    for device in &devices {
        let snapshot = device.snapshot();
        for (user, top) in snapshot.released_sets().expect("final checkpoint is well-formed") {
            released.push((u64::from(user.raw()), top_key(top.x, top.y)));
        }
    }
    (digest, hub.deterministic_json(), hub, released)
}

#[test]
fn outputs_and_export_are_invariant_across_shard_counts() {
    let (d1, j1, hub, released) = run_fleet(1, false);
    let (d4, j4, _, _) = run_fleet(4, false);
    let (d16, j16, _, _) = run_fleet(16, false);
    assert_eq!(d1, d4, "sharding 1 -> 4 changed reported locations");
    assert_eq!(d1, d16, "sharding 1 -> 16 changed reported locations");
    assert_eq!(j1, j4, "sharding 1 -> 4 leaked into the deterministic export");
    assert_eq!(j1, j16, "sharding 1 -> 16 leaked into the deterministic export");
    // The export carries the workload's exact shape, and the clean path
    // restarted nothing.
    let (checkins, requests) = workload_counts();
    assert!(j1.contains(&format!("\"edge.checkins\": {checkins}")), "{j1}");
    assert!(j1.contains(&format!("\"server.requests\": {requests}")), "{j1}");
    assert_eq!(hub.registry().snapshot().counter("server.restarts"), Some(0));
    // Exactly one permanent candidate set per user, audited exactly-once.
    assert_eq!(released.len(), USERS as usize);
    hub.ledger().assert_no_double_spend(released).expect("clean fleet ledger audits");
    assert_eq!(hub.ledger().totals().candidate_sets, u64::from(USERS));
}

#[test]
fn outputs_and_export_survive_one_worker_kill_per_shard() {
    // The crash counts differ on purpose: 1, 4, and 16 restores. Exact
    // restores plus exactly-once telemetry delivery mean none of it may
    // show in outputs or in the deterministic export.
    let (clean_digest, clean_json, _, _) = run_fleet(1, false);
    let (d1, j1, hub1, released1) = run_fleet(1, true);
    let (d4, j4, hub4, released4) = run_fleet(4, true);
    let (d16, j16, hub16, released16) = run_fleet(16, true);
    assert_eq!(d1, clean_digest, "a single restore changed reported locations");
    assert_eq!(d4, clean_digest, "4 per-shard restores changed reported locations");
    assert_eq!(d16, clean_digest, "16 per-shard restores changed reported locations");
    assert_eq!(j1, clean_json, "a restore leaked into the deterministic export");
    assert_eq!(j4, clean_json);
    assert_eq!(j16, clean_json);
    // Every shard really was killed once.
    for (hub, kills) in [(&hub1, 1), (&hub4, 4), (&hub16, 16)] {
        assert_eq!(hub.registry().snapshot().counter("server.restarts"), Some(kills));
    }
    // Crash-restore cycles never double-charge the budget, at any width.
    assert_eq!(released1.len(), USERS as usize);
    hub1.ledger().assert_no_double_spend(released1).expect("killed 1-shard ledger audits");
    hub16.ledger().assert_no_double_spend(released16).expect("killed 16-shard ledger audits");
    assert_eq!(released4.len(), USERS as usize);
    assert_eq!(hub16.ledger().totals().candidate_sets, u64::from(USERS));
}
