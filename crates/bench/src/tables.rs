//! Tables II and III: edge-device scalability.
//!
//! Table II times the periodic batch job "build every user's location
//! profile and generate candidate locations"; Table III times the
//! per-request output-selection path, both as a function of the number of
//! users served by one edge device. The paper measures a Raspberry Pi 3
//! (340 s → 4,014 s for Table II, 90 ms → 1,377 ms for Table III between
//! 2,000 and 32,000 users); the reproduction target is the ~linear scaling
//! shape, not the absolute numbers.
//!
//! Both sweeps run one per-user-stream [`EdgeDevice`] per worker thread,
//! each serving a contiguous range of user ids — one edge device per
//! core, with no lock taken per request. Every user draws from a
//! private stream derived from `(seed, user id)`, so candidate tables and
//! reported locations are bit-for-bit identical for any thread count —
//! only the wall-clock changes. [`Outcome::digest`] captures those
//! deterministic outputs for exactly that cross-thread-count check, and
//! each [`Row`] carries the work the devices counted while timed.

use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use privlocad::{EdgeDevice, SystemConfig};
use privlocad_geo::Point;
use privlocad_metrics::montecarlo::Fanout;
use privlocad_mobility::{PopulationConfig, UserId, SECONDS_PER_DAY};
use serde::{Deserialize, Serialize};

use crate::report::Table;
use crate::{fnv1a, FNV_OFFSET};

/// Configuration for the scalability experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// User counts to sweep (paper: 2,000 → 32,000 doubling).
    pub user_counts: Vec<usize>,
    /// Master seed.
    pub seed: u64,
    /// Worker threads, one edge device each (0 = auto). The measured
    /// wall-clock depends on this; the device outputs
    /// ([`Outcome::digest`]) and work counts do not.
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { user_counts: vec![2_000, 4_000, 8_000, 16_000, 32_000], seed: 0, threads: 0 }
    }
}

/// One row: the wall-clock time to serve a user count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Number of users.
    pub users: usize,
    /// Wall-clock milliseconds.
    pub millis: f64,
    /// Work the devices counted in the timed section
    /// ([`privlocad::DeviceStats`]): fresh candidate sets for Table II,
    /// location requests for Table III. A pure function of the seed.
    pub work: u64,
}

/// Result of a scalability sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// Which paper table this reproduces ("II" or "III").
    pub table: &'static str,
    /// One row per user count.
    pub rows: Vec<Row>,
    /// FNV-1a digest of the device's deterministic outputs (candidate
    /// sets for Table II, reported locations for Table III). Identical
    /// for any [`Config::threads`] value — the timing rows are the only
    /// thread-count-dependent part of an outcome.
    pub digest: u64,
}

fn fnv1a_point(hash: u64, p: Point) -> u64 {
    fnv1a(fnv1a(hash, &p.x.to_bits().to_le_bytes()), &p.y.to_bits().to_le_bytes())
}

/// Splits users `0..count` into at most `workers` contiguous ranges, one
/// per edge device.
pub(crate) fn partition(count: usize, workers: usize) -> Vec<Range<usize>> {
    let chunk = count.div_ceil(workers.max(1)).max(1);
    (0..count).step_by(chunk).map(|start| start..(start + chunk).min(count)).collect()
}

/// Table II: profile building + candidate generation for every user.
///
/// Dataset generation is excluded from the timing — the measured section
/// is exactly the edge's periodic batch job: ingest the window's
/// check-ins, rebuild the profile, obfuscate new top locations. Each of
/// the [`Config::threads`] workers runs the job on its own device for its
/// range of users.
pub fn run_table2(config: &Config) -> Outcome {
    let max_users = config.user_counts.iter().copied().max().unwrap_or(0);
    let population =
        PopulationConfig::builder().num_users(max_users.max(1)).seed(config.seed).build();
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let window_secs = sys.window_days() as i64 * SECONDS_PER_DAY;
    let fan = Fanout::with_threads(config.seed, config.threads);

    let mut digest = FNV_OFFSET;
    let rows = config
        .user_counts
        .iter()
        .map(|&count| {
            let indices: Vec<u32> = (0..count as u32).collect();
            // Pre-generate each user's first-window check-ins (untimed).
            let windows: Vec<Vec<Point>> = fan.map(&indices, |_, &i| {
                population
                    .generate_user(i)
                    .checkins
                    .iter()
                    .filter(|c| c.time.seconds() < window_secs)
                    .map(|c| c.location)
                    .collect()
            });
            let ranges = partition(count, fan.threads());
            let start = Instant::now();
            let devices = fan.map(&ranges, |_, users| {
                let mut edge = EdgeDevice::new(sys, config.seed);
                for u in users.clone() {
                    let user = UserId::new(u as u32);
                    for &loc in &windows[u] {
                        edge.report_checkin(user, loc);
                    }
                    edge.finalize_window(user);
                }
                edge
            });
            let millis = start.elapsed().as_secs_f64() * 1_000.0;
            // Fold each user's candidate set into the determinism digest,
            // in user order (untimed; pure reads).
            for (edge, users) in devices.iter().zip(&ranges) {
                for u in users.clone() {
                    let mut h = FNV_OFFSET;
                    if let Some(&first) = windows[u].first() {
                        if let Some(candidates) = edge.candidates(UserId::new(u as u32), first) {
                            for &c in candidates {
                                h = fnv1a_point(h, c);
                            }
                        }
                    }
                    digest = fnv1a(digest, &h.to_le_bytes());
                }
            }
            let work = devices.iter().map(|d| d.stats().fresh_candidate_sets).sum();
            Row { users: count, millis, work }
        })
        .collect();
    Outcome { table: "II", rows, digest }
}

/// Table III: one output-selection request per user.
///
/// Every user's profile and candidate table are prepared beforehand on
/// its worker's device (untimed); the measured section is `users`
/// posterior selections, each worker serving its own range.
pub fn run_table3(config: &Config) -> Outcome {
    let max_users = config.user_counts.iter().copied().max().unwrap_or(0);
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let fan = Fanout::with_threads(config.seed, config.threads);
    // Synthetic homes on a grid: profile content does not matter for the
    // selection path, only that candidates exist.
    let homes: Vec<Point> = (0..max_users)
        .map(|i| Point::new((i % 1_000) as f64 * 1_000.0, (i / 1_000) as f64 * 1_000.0))
        .collect();

    let mut digest = FNV_OFFSET;
    let rows = config
        .user_counts
        .iter()
        .map(|&count| {
            let ranges = partition(count, fan.threads());
            // Each worker owns its device for the whole sweep step; the
            // mutex is taken once per worker, never per request.
            let devices: Vec<Mutex<EdgeDevice>> = fan.map(&ranges, |_, users| {
                let mut edge = EdgeDevice::new(sys, config.seed);
                for u in users.clone() {
                    let user = UserId::new(u as u32);
                    for _ in 0..8 {
                        edge.report_checkin(user, homes[u]);
                    }
                    edge.finalize_window(user);
                }
                Mutex::new(edge)
            });
            let start = Instant::now();
            let reports: Vec<Vec<Point>> = fan.map(&devices, |i, edge| {
                let mut edge = edge.lock().expect("no worker panicked holding a device");
                ranges[i]
                    .clone()
                    .map(|u| edge.reported_location(UserId::new(u as u32), homes[u]))
                    .collect()
            });
            let millis = start.elapsed().as_secs_f64() * 1_000.0;
            for p in reports.into_iter().flatten() {
                digest = fnv1a_point(digest, p);
            }
            let work = devices
                .into_iter()
                .map(|d| {
                    d.into_inner()
                        .expect("no worker panicked holding a device")
                        .stats()
                        .location_requests
                })
                .sum();
            Row { users: count, millis, work }
        })
        .collect();
    Outcome { table: "III", rows, digest }
}

impl Outcome {
    /// Renders the paper-style summary table.
    pub fn table(&self) -> Table {
        let title = match self.table {
            "II" => "Table II — obfuscation processing time",
            _ => "Table III — output selection time",
        };
        let mut t = Table::new(title, &["users", "time (ms)"]);
        for r in &self.rows {
            t.push_row(vec![r.users.to_string(), format!("{:.1}", r.millis)]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config { user_counts: vec![50, 200], seed: 1, threads: 0 }
    }

    #[test]
    fn table2_work_grows_with_users() {
        let out = run_table2(&small());
        assert_eq!(out.rows.len(), 2);
        assert!(out.rows[0].millis > 0.0);
        // Seed-pure work counts, not wall-clock: every sampled user releases
        // sets, and the 200-user sweep re-releases the first 50 users'
        // sets bit-for-bit plus 150 more users' — at least 4× the work.
        assert!(out.rows[0].work >= 50, "{:?}", out.rows);
        assert!(out.rows[1].work >= 4 * out.rows[0].work, "{:?}", out.rows);
    }

    #[test]
    fn table3_work_grows_with_users() {
        let out = run_table3(&small());
        assert_eq!(out.rows.len(), 2);
        assert!(out.rows[0].millis > 0.0);
        // One selection per user: 4× the users is exactly 4× the requests.
        assert_eq!(out.rows[0].work, 50);
        assert_eq!(out.rows[1].work, 200);
    }

    #[test]
    fn partition_covers_every_user_once_in_order() {
        assert_eq!(partition(7, 3), vec![0..3, 3..6, 6..7]);
        assert_eq!(partition(2, 4), vec![0..1, 1..2]);
        assert!(partition(0, 2).is_empty());
    }

    #[test]
    fn digests_are_thread_count_invariant() {
        let digest2 = |threads| run_table2(&Config { threads, ..small() }).digest;
        let digest3 = |threads| run_table3(&Config { threads, ..small() }).digest;
        assert_eq!(digest2(1), digest2(2));
        assert_eq!(digest2(1), digest2(0));
        assert_eq!(digest3(1), digest3(2));
        assert_eq!(digest3(1), digest3(0));
    }

    #[test]
    fn digests_match_the_golden_values() {
        // Table II's digest covers the candidate sets released from each
        // user's profiled first window, so it pins window profiling on
        // jittered check-ins; Table III's covers the served locations.
        assert_eq!(run_table2(&small()).digest, 0x2616_de91_3441_b429);
        assert_eq!(run_table3(&small()).digest, 0x45d6_b453_bd7d_e552);
    }

    #[test]
    fn outcome_tables_render() {
        let out2 = run_table2(&Config { user_counts: vec![20], seed: 0, threads: 1 });
        assert!(out2.table().render().contains("Table II"));
        let out3 = run_table3(&Config { user_counts: vec![20], seed: 0, threads: 1 });
        assert!(out3.table().render().contains("Table III"));
    }
}
