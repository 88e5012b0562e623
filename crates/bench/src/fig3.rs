//! Fig. 3: location entropy versus the number of check-ins.
//!
//! The paper computes every user's location profile (50 m connectivity
//! clustering) and plots entropy against check-in count, observing that
//! entropy *declines* as the count grows and that 88.8 % of users stay
//! below entropy 2 — i.e. most users' activity is confined to their top
//! locations, which is the precondition of the longitudinal attack.

use privlocad_attack::LocationProfile;
use privlocad_metrics::montecarlo::run_trials;
use privlocad_mobility::PopulationConfig;
use serde::{Deserialize, Serialize};

use crate::report::{f3, pct, Table};

/// Configuration for the Fig. 3 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Number of synthetic users (paper: 37,262).
    pub users: usize,
    /// Master seed.
    pub seed: u64,
    /// Profiling connectivity threshold in meters (paper: 50).
    pub theta_m: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config { users: 2_000, seed: 0, theta_m: 50.0 }
    }
}

/// One user's data point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserPoint {
    /// Check-in count.
    pub checkins: usize,
    /// Location entropy in nats (Equation 3).
    pub entropy: f64,
}

/// Result of the Fig. 3 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// Per-user points (check-ins, entropy).
    pub points: Vec<UserPoint>,
    /// Fraction of users with entropy < 2 (paper: 0.888).
    pub fraction_below_two: f64,
    /// Mean entropy per check-in-count bucket, ordered by bucket lower
    /// bound — the declining curve of Fig. 3.
    pub bucket_means: Vec<(usize, f64)>,
    /// Spearman rank correlation between check-in count and entropy
    /// (negative confirms the paper's declining trend without assuming
    /// linearity).
    pub spearman_rho: f64,
}

/// Check-in-count bucket boundaries used for the trend curve.
const BUCKETS: [usize; 7] = [20, 50, 100, 250, 500, 1_000, 3_000];

/// Runs the experiment.
pub fn run(config: &Config) -> Outcome {
    let population = PopulationConfig::builder().num_users(config.users).seed(config.seed).build();
    let theta = config.theta_m;
    let points: Vec<UserPoint> = run_trials(config.users, config.seed, |i, _| {
        let user = population.generate_user(i as u32);
        let locations = user.locations();
        let profile = LocationProfile::from_checkins(&locations, theta);
        UserPoint { checkins: locations.len(), entropy: profile.entropy() }
    });

    let below = points.iter().filter(|p| p.entropy < 2.0).count();
    let fraction_below_two = below as f64 / points.len().max(1) as f64;

    let mut bucket_means = Vec::new();
    for (b, &lo) in BUCKETS.iter().enumerate() {
        let hi = BUCKETS.get(b + 1).copied().unwrap_or(usize::MAX);
        let xs: Vec<f64> = points
            .iter()
            .filter(|p| p.checkins >= lo && p.checkins < hi)
            .map(|p| p.entropy)
            .collect();
        if !xs.is_empty() {
            bucket_means.push((lo, xs.iter().sum::<f64>() / xs.len() as f64));
        }
    }
    let counts: Vec<f64> = points.iter().map(|p| p.checkins as f64).collect();
    let entropies: Vec<f64> = points.iter().map(|p| p.entropy).collect();
    let spearman_rho = if points.len() >= 2 {
        privlocad_metrics::stats::spearman(&counts, &entropies)
    } else {
        0.0
    };
    Outcome { points, fraction_below_two, bucket_means, spearman_rho }
}

impl Outcome {
    /// Renders the paper-style summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 3 — location entropy vs number of check-ins",
            &["checkins >=", "mean entropy (nats)"],
        );
        for (lo, mean) in &self.bucket_means {
            t.push_row(vec![lo.to_string(), f3(*mean)]);
        }
        t.push_row(vec!["users with entropy < 2".into(), pct(self.fraction_below_two)]);
        t.push_row(vec!["Spearman rho (count vs entropy)".into(), f3(self.spearman_rho)]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_matches_paper_shape() {
        let out = run(&Config { users: 200, seed: 3, theta_m: 50.0 });
        assert_eq!(out.points.len(), 200);
        // Most users are routine-bound (paper: 88.8 % below entropy 2).
        assert!(out.fraction_below_two > 0.7, "below-2 {}", out.fraction_below_two);
        // Entropy declines with check-in volume. Compare the light and
        // heavy halves of the population (a median split is robust to the
        // thin extreme buckets of a small sample).
        let mut counts: Vec<usize> = out.points.iter().map(|p| p.checkins).collect();
        counts.sort_unstable();
        let median = counts[counts.len() / 2];
        let half = |pred: &dyn Fn(usize) -> bool| {
            let xs: Vec<f64> =
                out.points.iter().filter(|p| pred(p.checkins)).map(|p| p.entropy).collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let light = half(&|c| c < median);
        let heavy = half(&|c| c >= median);
        assert!(heavy < light, "heavy {heavy} should be below light {light}");
        // The rank correlation is negative — the declining trend.
        assert!(out.spearman_rho < 0.0, "rho {}", out.spearman_rho);
    }

    #[test]
    fn deterministic() {
        let cfg = Config { users: 40, seed: 1, theta_m: 50.0 };
        assert_eq!(run(&cfg), run(&cfg));
    }

    #[test]
    fn table_renders() {
        let out = run(&Config { users: 40, seed: 2, theta_m: 50.0 });
        let t = out.table();
        assert!(!t.is_empty());
        assert!(t.render().contains("entropy"));
    }
}
