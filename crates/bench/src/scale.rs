//! The `bench serve` scale stage: million-user sharded-fleet capacity.
//!
//! Where the other serving stages measure per-request latency on a small
//! fleet, this stage measures *capacity*: how much resident state a user
//! costs, how long a shard checkpoint takes to encode, and how long a
//! dead shard takes to come back — at fleet sizes up to a million users
//! partitioned over `ceil(users / 10_000)` shards.
//!
//! Shards are driven **sequentially**, so peak memory stays near one
//! shard regardless of fleet size: settle the shard's users (check-ins
//! plus a window close — each user ends with a permanent candidate set
//! and a warm posterior table), measure [`EdgeDevice::footprint`], time
//! [`EdgeDevice::checkpoint`] (one contiguous pooled frame buffer) and
//! [`EdgeDevice::restore_from_checkpoint`] (the zero-copy decode), then
//! serve one ad request per user *on the restored device* and fold the
//! reports into the stage digest.
//!
//! The digest is an XOR accumulation of per-user FNV-1a hashes over
//! `(user, report)`, so it is insensitive to user order and shard
//! partition — with per-user RNG streams
//! ([`EdgeDevice::new`]) it is bit-for-bit identical at
//! any shard count, which [`run`] asserts on a small probe fleet (direct
//! devices at 1 vs 4 shards, plus an end-to-end
//! [`privlocad::ShardRouter`]) before timing anything.

use std::time::Instant;

use privlocad::protocol::ClientRequest;
use privlocad::{EdgeDevice, ShardRouter, SystemConfig};
use privlocad_geo::Point;
use privlocad_mobility::UserId;

use crate::report::Table;
use crate::{fnv1a, FNV_OFFSET};

/// Users per shard: fleets are partitioned into `ceil(users / 10_000)`
/// shards, so per-shard work (and recovery time) stays flat as the fleet
/// grows.
const SHARD_USERS: usize = 10_000;

/// Check-ins per user before the window close.
const CHECKINS: usize = 8;

/// Scale-stage parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Largest fleet size to measure. The stage reports one row per
    /// decade of `[10_000, 100_000, 1_000_000]` that fits under this cap
    /// (or a single row at exactly `users` when the cap is below the
    /// smallest decade).
    pub users: usize,
    /// Master seed; every user's private stream derives from it.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { users: SHARD_USERS, seed: 0 }
    }
}

/// One measured fleet size.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Row label, `serve/scale/{users}`.
    pub name: String,
    /// Total wall-clock for measuring this fleet size (settle + encode +
    /// restore + serve, all shards).
    pub wall_ms: f64,
    /// Fleet size.
    pub users: usize,
    /// Shards the fleet was partitioned across.
    pub shards: usize,
    /// Resident bytes per user, aggregated over all shards
    /// ([`privlocad::StateFootprint::bytes_per_user`]).
    pub bytes_per_user: f64,
    /// Total checkpoint encode time across all shards, milliseconds
    /// (fastest of the per-shard samples).
    pub checkpoint_encode_ms: f64,
    /// Total decode+restore time across all shards, milliseconds.
    pub recovery_ms: f64,
    /// Slowest single shard's decode+restore, milliseconds — the
    /// wall-clock a crash actually costs, which stays flat as the fleet
    /// grows because shard size is pinned at 10,000 users.
    pub per_shard_recovery_ms: f64,
    /// Shard-count-invariant output digest (hex): XOR of per-user
    /// FNV-1a hashes over `(user, reported location)`.
    pub digest: String,
}

/// The full scale-stage result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// One row per measured fleet size, smallest first.
    pub rows: Vec<ScaleRow>,
}

impl Outcome {
    /// Renders the capacity summary table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "sharded fleet capacity",
            &["fleet", "shards", "B/user", "ckpt ms", "recover ms", "per-shard ms", "digest"],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.users.to_string(),
                row.shards.to_string(),
                format!("{:.0}", row.bytes_per_user),
                format!("{:.1}", row.checkpoint_encode_ms),
                format!("{:.1}", row.recovery_ms),
                format!("{:.1}", row.per_shard_recovery_ms),
                row.digest.clone(),
            ]);
        }
        table
    }
}

/// The same deterministic top-location grid the serving stages use.
fn home_of(user: usize) -> Point {
    Point::new((user % 1_000) as f64 * 2_000.0, (user / 1_000) as f64 * 2_000.0)
}

/// One user's contribution to the stage digest: FNV-1a over the user id
/// and the raw bits of the reported location.
fn user_digest(user: u32, report: Point) -> u64 {
    let mut hash = fnv1a(FNV_OFFSET, &user.to_le_bytes());
    hash = fnv1a(hash, &report.x.to_bits().to_le_bytes());
    fnv1a(hash, &report.y.to_bits().to_le_bytes())
}

/// Settles every user of `shard` (ids ≡ shard mod shards, below `size`)
/// on a fresh per-user-stream device: `CHECKINS` check-ins at the user's
/// home, then a window close.
fn settled_shard(config: &Config, size: usize, shard: usize, shards: usize) -> EdgeDevice {
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let mut edge = EdgeDevice::new(sys, config.seed);
    for u in (shard..size).step_by(shards) {
        let user = UserId::new(u as u32);
        for _ in 0..CHECKINS {
            edge.report_checkin(user, home_of(u));
        }
        edge.finalize_window(user);
    }
    edge
}

/// Serves one ad request per resident user (home location, the posterior
/// hot path) and XORs the per-user digests into one shard digest.
fn serve_and_digest(edge: &mut EdgeDevice, size: usize, shard: usize, shards: usize) -> u64 {
    let mut digest = 0u64;
    for u in (shard..size).step_by(shards) {
        let report = edge.reported_location(UserId::new(u as u32), home_of(u));
        digest ^= user_digest(u as u32, report);
    }
    digest
}

/// Asserts the partition-invariance contract on a small probe fleet:
/// direct per-user-stream devices produce the same digest at 1 and 4
/// shards, and a real [`ShardRouter`] (supervised servers, protocol
/// frames, 2 shards) lands on the same digest end-to-end.
fn assert_partition_invariance(config: &Config, probe: usize) {
    let direct = |shards: usize| {
        let mut digest = 0u64;
        for shard in 0..shards {
            let mut edge = settled_shard(config, probe, shard, shards);
            digest ^= serve_and_digest(&mut edge, probe, shard, shards);
        }
        digest
    };
    let one = direct(1);
    assert_eq!(one, direct(4), "digest must not depend on the shard partition");

    let router = ShardRouter::spawn(
        SystemConfig::builder().build().expect("default config is valid"),
        config.seed,
        2,
    );
    for u in 0..probe {
        let user = UserId::new(u as u32);
        for t in 0..CHECKINS {
            router.check_in(user, home_of(u), t as i64).expect("check-in");
        }
        router.finalize_window(user).expect("window close");
    }
    let mut routed = 0u64;
    for u in 0..probe {
        let report =
            router.request_location(UserId::new(u as u32), home_of(u)).expect("location request");
        routed ^= user_digest(u as u32, report);
    }
    router.shutdown().expect("shutdown");
    router.join().expect("shards join clean");
    assert_eq!(one, routed, "routed fleet must match the direct digest");
}

/// Measures one fleet size; shards are processed sequentially so peak
/// memory stays near one shard.
fn measure(config: &Config, size: usize) -> ScaleRow {
    let stage_start = Instant::now();
    let shards = size.div_ceil(SHARD_USERS);
    let mut total_bytes = 0u64;
    let mut encode_ms = 0.0f64;
    let mut recovery_ms = 0.0f64;
    let mut worst_shard_ms = 0.0f64;
    let mut digest = 0u64;
    for shard in 0..shards {
        let edge = settled_shard(config, size, shard, shards);
        total_bytes += edge.footprint().total_bytes();

        let mut shard_encode = f64::INFINITY;
        let mut log = edge.checkpoint();
        for _ in 0..2 {
            let start = Instant::now();
            log = edge.checkpoint();
            shard_encode = shard_encode.min(start.elapsed().as_secs_f64() * 1e3);
        }
        drop(edge);

        let sys = SystemConfig::builder().build().expect("default config is valid");
        let mut shard_recover = f64::INFINITY;
        let mut restored = None;
        for _ in 0..2 {
            let start = Instant::now();
            restored =
                Some(EdgeDevice::restore_from_checkpoint(sys, &log).expect("checkpoint restores"));
            shard_recover = shard_recover.min(start.elapsed().as_secs_f64() * 1e3);
        }
        let mut restored = restored.expect("restore loop ran");

        encode_ms += shard_encode;
        recovery_ms += shard_recover;
        worst_shard_ms = worst_shard_ms.max(shard_recover);
        digest ^= serve_and_digest(&mut restored, size, shard, shards);
    }
    ScaleRow {
        name: format!("serve/scale/{size}"),
        wall_ms: stage_start.elapsed().as_secs_f64() * 1e3,
        users: size,
        shards,
        bytes_per_user: total_bytes as f64 / size as f64,
        checkpoint_encode_ms: encode_ms,
        recovery_ms,
        per_shard_recovery_ms: worst_shard_ms,
        digest: format!("{digest:016x}"),
    }
}

/// Runs the scale stage: the partition-invariance probe, then one
/// measured row per fleet size under `config.users`.
pub fn run(config: &Config) -> Outcome {
    let users = config.users.max(1);
    assert_partition_invariance(config, users.min(512));
    let mut sizes: Vec<usize> =
        [10_000, 100_000, 1_000_000].into_iter().filter(|&s| s <= users).collect();
    if sizes.is_empty() {
        sizes.push(users);
    }
    Outcome { rows: sizes.into_iter().map(|size| measure(config, size)).collect() }
}

/// A protocol-level scale workload for one user, in serving order — what
/// the invariance integration test drives through real servers.
// lint:allow(dead-pub): integration-test hook: bench's shard_invariance replays the scale workload with it
pub fn user_workload(user: UserId, checkins: usize) -> Vec<ClientRequest> {
    let home = home_of(user.raw() as usize);
    (0..checkins)
        .map(|t| ClientRequest::CheckIn { user, location: home, timestamp: t as i64 })
        .chain([ClientRequest::FinalizeWindow { user }])
        .chain([ClientRequest::RequestLocation { user, location: home }])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_reports_one_row_with_flat_shape() {
        let out = run(&Config { users: 96, seed: 3 });
        assert_eq!(out.rows.len(), 1);
        let row = &out.rows[0];
        assert_eq!(row.name, "serve/scale/96");
        assert_eq!((row.users, row.shards), (96, 1));
        assert!(row.bytes_per_user > 0.0);
        assert!(row.checkpoint_encode_ms >= 0.0 && row.recovery_ms >= 0.0);
        assert!(row.per_shard_recovery_ms <= row.recovery_ms + 1e-9);
        assert_eq!(row.digest.len(), 16);
        assert_eq!(out.table().len(), 1);
    }

    #[test]
    fn digest_is_a_pure_function_of_the_seed() {
        let row = |seed| {
            let out = run(&Config { users: 64, seed });
            out.rows[0].digest.clone()
        };
        assert_eq!(row(5), row(5));
        assert_ne!(row(5), row(6), "different masters must draw different candidates");
    }

    #[test]
    fn user_workload_has_serving_shape() {
        let ops = user_workload(UserId::new(3), 4);
        assert_eq!(ops.len(), 6);
        assert!(matches!(ops[0], ClientRequest::CheckIn { .. }));
        assert!(matches!(ops[4], ClientRequest::FinalizeWindow { .. }));
        assert!(matches!(ops[5], ClientRequest::RequestLocation { .. }));
    }
}
