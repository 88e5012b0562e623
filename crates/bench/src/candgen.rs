//! The `microbench` candidate-install workload: cold scalar generation
//! versus the batched arena path, measured as a paired ratio.
//!
//! One measured iteration models a fleet closing one window for every
//! user: each `(user, top)` pair draws its permanent `n`-fold candidate
//! set from the derived stream `seeded(derive_seed(seed, pair_index))`,
//! then the set is installed on every edge serving the user (candidates and
//! their posterior weights into the obfuscation table).
//!
//! 1. `candidate_install/cold` — a faithful replica of the pre-arena
//!    path: per pair a scalar [`Lppm::obfuscate`] call, then **per edge**
//!    a copy of the candidates plus a full posterior-weight pass.
//! 2. `candidate_install/batched` — the shipped path:
//!    [`CandidateArena::prepare`] batch-generates every pair through the
//!    lane kernel and stages shared sets; per edge the install is one
//!    `Arc` clone.
//!
//! Both stages draw the *identical* candidate streams (verified
//! bit-for-bit, untimed, before measurement), so the ratio isolates the
//! install overhead the arena removes. Both stages install into
//! long-lived scratch containers (cleared per edge, never reallocated),
//! mirroring the persistent per-user state a real edge installs into.
//! Samples are interleaved
//! ([`Runner::bench_throughput_paired`], nine samples, fastest kept) so a
//! scheduling burst on single-core CI hits both sides symmetrically.

use privlocad::{CandidateArena, EdgeDevice, ObfuscationModule, ObfuscationTable, SystemConfig};
use privlocad_attack::ProfileEntry;
use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use privlocad_mechanisms::{GeoIndParams, Lppm, NFoldGaussian, PosteriorSelector};
use privlocad_mobility::UserId;
use privlocad_telemetry::Telemetry;

use crate::microbench::Runner;
use crate::report::Table;

/// Candidate-install benchmark parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Users closing a window per measured iteration.
    pub users: usize,
    /// Top locations per user; every `(user, top)` pair gets its own set.
    pub tops: usize,
    /// Edge devices each set is installed on.
    pub edges: usize,
    /// Candidates per set (the mechanism's `n`).
    pub n: usize,
    /// Master seed of the derived per-pair candidate streams.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        // 64 users × 2 tops keeps one iteration around a millisecond.
        // The arena's win scales with edges × n (the per-edge copy and
        // weight pass it removes are both O(n); the shared install is one
        // `Arc` bump regardless of n), so the defaults model the
        // regime the arena exists for: a metro-scale fleet (32 edges) at
        // a high-protection operating point (n = 24, above the paper's
        // 1..=10 figure sweep). EXPERIMENTS.md tabulates smaller fleets.
        Config { users: 64, tops: 2, edges: 32, n: 24, seed: 0 }
    }
}

impl Config {
    /// The mechanism parameters of the benchmark workload: the paper's
    /// defaults with the configured candidate count.
    fn geo_ind(&self) -> GeoIndParams {
        GeoIndParams::new(500.0, 1.0, 0.01, self.n).expect("benchmark geo-ind parameters are valid")
    }
}

/// One measured candidate-install stage.
#[derive(Debug, Clone)]
pub struct CandidateRow {
    /// Stage label, `candidate_install/...`.
    pub name: String,
    /// Wall-clock per measured iteration (fastest sample).
    pub wall_ms: f64,
    /// Nanoseconds per installed `(pair, edge)` unit.
    pub ns_per_op: f64,
    /// Install throughput in `(pair, edge)` units per second.
    pub installs_per_sec: f64,
    /// Worker threads (always 1 — the install path is single-threaded).
    pub threads: usize,
    /// Speedup over the cold stage, carried by the batched row.
    pub ratio: Option<f64>,
}

/// The full candidate-install benchmark result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// One row per stage, cold first.
    pub rows: Vec<CandidateRow>,
    /// Candidate sets whose cold and batched streams were compared
    /// bit-for-bit before measurement.
    pub pairs_verified: usize,
    /// The deterministic install profile: one untimed pass installing the
    /// staged sets on a fresh edge device (twice, proving permanence),
    /// drained into this hub. Exported next to the BENCH rows.
    pub telemetry: Telemetry,
}

impl Outcome {
    /// Throughput of the batched stage relative to the cold replica.
    pub fn speedup(&self) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.name.starts_with("candidate_install/batched"))
            .and_then(|r| r.ratio)
    }

    /// Renders the summary table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "candidate generation + install",
            &["stage", "threads", "ns/op", "installs/s"],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.name.clone(),
                row.threads.to_string(),
                format!("{:.0}", row.ns_per_op),
                format!("{:.0}", row.installs_per_sec),
            ]);
        }
        table
    }
}

/// The top location of `(user, top)` — pairs are kilometers apart, so
/// every one releases its own candidate set.
fn top_of(user: usize, top: usize) -> Point {
    Point::new(user as f64 * 5_000.0, top as f64 * 5_000.0)
}

/// Per-user profile entries for the install call.
fn entries_of(config: &Config, user: usize) -> Vec<ProfileEntry> {
    (0..config.tops).map(|t| ProfileEntry { location: top_of(user, t), frequency: 12 }).collect()
}

/// The per-stage install target, modeling the edge's persistent per-user
/// state: on a real device the table already exists when a window closes,
/// so its backing allocation is not part of install cost. Clearing instead
/// of reallocating keeps both stages alloc-free on the container side and
/// leaves only the work the arena actually changes in the measurement.
struct EdgeScratch {
    table: ObfuscationTable,
    /// The device's match radius, which every insert looks tops up by.
    radius: f64,
}

impl EdgeScratch {
    fn new(radius: f64) -> Self {
        EdgeScratch { table: ObfuscationTable::default(), radius }
    }

    fn clear(&mut self) {
        self.table.clear();
    }
}

/// One cold window close for `user`: scalar generation per pair, then per
/// edge a copy of the candidates beside their posterior weights — the
/// per-edge work [`EdgeDevice::install_protection`] did before the arena.
fn cold_user(
    config: &Config,
    mech: &NFoldGaussian,
    selector: &PosteriorSelector,
    scratch: &mut EdgeScratch,
    user: usize,
) -> usize {
    let sets: Vec<(Point, Vec<Point>)> = (0..config.tops)
        .map(|t| {
            let top = top_of(user, t);
            let pair = (user * config.tops + t) as u64;
            let mut rng = seeded(derive_seed(config.seed, pair));
            (top, mech.obfuscate(top, &mut rng))
        })
        .collect();
    let mut sink = 0usize;
    for _ in 0..config.edges {
        scratch.clear();
        for (top, candidates) in &sets {
            scratch.table.insert(*top, selector.table(candidates), scratch.radius);
        }
        sink += scratch.table.len();
    }
    sink
}

/// One batched window close for `user`: the arena generates every pair
/// through the lane kernel and stages shared sets; per edge the install is
/// one `Arc` clone per set into the cleared [`EdgeScratch`].
fn batched_user(
    config: &Config,
    arena: &mut CandidateArena,
    mech: &NFoldGaussian,
    scratch: &mut EdgeScratch,
    pair_counter: &mut u64,
    user: usize,
) -> usize {
    let tops: Vec<Point> = (0..config.tops).map(|t| top_of(user, t)).collect();
    let mut authority = ObfuscationModule::default();
    arena.prepare(&mut authority, mech, scratch.radius, &tops, config.seed, pair_counter);
    let mut sink = 0usize;
    for _ in 0..config.edges {
        scratch.clear();
        for set in arena.sets() {
            scratch.table.insert(set.top(), set.candidates().clone(), scratch.radius);
        }
        sink += scratch.table.len();
    }
    sink
}

/// Asserts, untimed, that the batched arena releases bit-for-bit the same
/// candidates the cold scalar path draws from the same derived streams.
/// Returns the number of pairs compared.
fn verify_bit_identity(config: &Config, sys: &SystemConfig) -> usize {
    let (mech, radius) = (NFoldGaussian::new(config.geo_ind()), sys.top_match_radius_m());
    let mut arena = CandidateArena::new();
    let mut counter = 0u64;
    let mut verified = 0usize;
    for u in 0..config.users {
        let tops: Vec<Point> = (0..config.tops).map(|t| top_of(u, t)).collect();
        let mut authority = ObfuscationModule::default();
        arena.prepare(&mut authority, &mech, radius, &tops, config.seed, &mut counter);
        for (t, set) in arena.sets().iter().enumerate() {
            let pair = (u * config.tops + t) as u64;
            let mut rng = seeded(derive_seed(config.seed, pair));
            let scalar = mech.obfuscate(set.top(), &mut rng);
            assert!(
                set.candidates().points().eq(scalar),
                "batched stream diverged from scalar at user {u} top {t}"
            );
            verified += 1;
        }
    }
    verified
}

/// One untimed install pass on a fresh edge device, drained into a hub:
/// the staged sets land exactly once (one `CandidateSet` ledger spend per
/// pair), and a second install of the same sets spends nothing —
/// permanence is invariant under the batched path.
fn telemetry_pass(config: &Config, sys: &SystemConfig) -> Telemetry {
    let telemetry = Telemetry::new();
    let mut edge = EdgeDevice::new(*sys, config.seed);
    let (mech, radius) = (NFoldGaussian::new(config.geo_ind()), sys.top_match_radius_m());
    let mut arena = CandidateArena::new();
    let mut counter = 0u64;
    for u in 0..config.users {
        let user = UserId::new(u as u32);
        let tops: Vec<Point> = (0..config.tops).map(|t| top_of(u, t)).collect();
        let mut authority = ObfuscationModule::default();
        arena.prepare(&mut authority, &mech, radius, &tops, config.seed, &mut counter);
        edge.install_protection(user, entries_of(config, u), arena.sets());
        // Permanence: re-installing the same sets must spend nothing.
        edge.install_protection(user, entries_of(config, u), arena.sets());
    }
    edge.drain_telemetry(&telemetry);
    telemetry
}

/// Runs both install stages (samples interleaved) and returns the rows.
pub fn run(config: &Config) -> Outcome {
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let pairs_verified = verify_bit_identity(config, &sys);

    let mech = NFoldGaussian::new(config.geo_ind());
    let selector = PosteriorSelector::new(mech.sigma());
    let radius = sys.top_match_radius_m();
    let mut arena = CandidateArena::new();
    let installs = (config.users * config.tops * config.edges) as u64;

    let mut cold_scratch = EdgeScratch::new(radius);
    let mut batched_scratch = EdgeScratch::new(radius);

    let mut runner = Runner::new();
    runner.bench_throughput_paired(
        ("candidate_install/cold", installs, &mut || {
            let mut sink = 0usize;
            for u in 0..config.users {
                sink += cold_user(config, &mech, &selector, &mut cold_scratch, u);
            }
            sink
        }),
        ("candidate_install/batched", installs, &mut || {
            let mut counter = 0u64;
            let mut sink = 0usize;
            for u in 0..config.users {
                sink +=
                    batched_user(config, &mut arena, &mech, &mut batched_scratch, &mut counter, u);
            }
            sink
        }),
    );

    let measurements = runner.finish();
    let cold_min = measurements
        .iter()
        .find(|m| m.label == "candidate_install/cold")
        .map(|m| m.min_ns_per_iter);
    let rows = measurements
        .into_iter()
        .map(|m| {
            let elements = m.elements.unwrap_or(1);
            // Like the serving rows, the statistic is the fastest of the
            // nine samples: the workload is deterministic and CPU-bound, so
            // interference only slows samples down, and the interleaved
            // minimum is the stable base for the cold/batched ratio.
            let per_op = m.min_ns_per_iter / elements as f64;
            let ratio = if m.label.ends_with("/batched") {
                cold_min.map(|cold| cold / m.min_ns_per_iter)
            } else {
                None
            };
            CandidateRow {
                name: m.label,
                wall_ms: m.min_ns_per_iter * 1e-6,
                ns_per_op: per_op,
                installs_per_sec: elements as f64 / (m.min_ns_per_iter * 1e-9),
                threads: 1,
                ratio,
            }
        })
        .collect();
    Outcome { rows, pairs_verified, telemetry: telemetry_pass(config, &sys) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_telemetry::top_key;

    #[test]
    fn both_stages_report_and_streams_match() {
        let config = Config { users: 3, tops: 2, edges: 4, n: 6, seed: 11 };
        let out = run(&config);
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.pairs_verified, 6);
        assert_eq!(out.rows[0].name, "candidate_install/cold");
        assert_eq!(out.rows[1].name, "candidate_install/batched");
        for row in &out.rows {
            assert!(row.ns_per_op > 0.0 && row.wall_ms > 0.0, "{}", row.name);
            assert!(row.installs_per_sec > 0.0, "{}", row.name);
            assert_eq!(row.threads, 1);
        }
        assert!(out.rows[0].ratio.is_none());
        let ratio = out.rows[1].ratio.expect("batched row carries the ratio");
        assert!(ratio.is_finite() && ratio > 0.0);
        assert_eq!(out.speedup(), Some(ratio));
        assert_eq!(out.table().len(), 2);
    }

    #[test]
    fn telemetry_pass_ledgers_each_set_once() {
        let config = Config { users: 4, tops: 2, edges: 3, n: 5, seed: 5 };
        let sys = SystemConfig::builder().build().unwrap();
        let telemetry = telemetry_pass(&config, &sys);
        let metrics = telemetry.registry().snapshot();
        // users × tops fresh sets despite the double install.
        assert_eq!(metrics.counter("edge.fresh_candidate_sets"), Some(8));
        let live: Vec<(u64, _)> = (0..config.users)
            .flat_map(|u| {
                (0..config.tops).map(move |t| {
                    let p = top_of(u, t);
                    (u as u64, top_key(p.x, p.y))
                })
            })
            .collect();
        telemetry.ledger().assert_no_double_spend(live).unwrap();
        assert_eq!(telemetry.ledger().totals().candidate_sets, 8);
    }

    #[test]
    fn telemetry_pass_is_deterministic() {
        let config = Config { users: 2, tops: 1, edges: 2, n: 4, seed: 9 };
        let sys = SystemConfig::builder().build().unwrap();
        let a = telemetry_pass(&config, &sys).deterministic_json();
        let b = telemetry_pass(&config, &sys).deterministic_json();
        assert_eq!(a, b);
        assert!(a.contains("edge.fresh_candidate_sets"));
    }
}
