//! Attack-success evaluation (the metrics behind Figs. 4 and 6).
//!
//! The paper calls an attack on one user *successful at rank k and
//! threshold d* when the inferred top-k location lies within `d` meters of
//! the user's true top-k location. The [`AttackStats`] aggregator collects
//! rank-wise inference distances over a user population and reports success
//! rates and distance CDFs.

use serde::{Deserialize, Serialize};

use privlocad_geo::Point;

use crate::InferredLocation;

/// Rank-wise distances between inferred and true top locations.
///
/// `result[k]` is `Some(distance in meters)` when both an inferred and a
/// true location exist at rank `k`, and `None` when the attack produced no
/// inference for that rank (treated as a failed attack at every threshold).
///
/// # Examples
///
/// ```
/// use privlocad_attack::evaluation::rank_distances;
/// use privlocad_attack::InferredLocation;
/// use privlocad_geo::Point;
///
/// let inferred = vec![InferredLocation { rank: 0, location: Point::new(30.0, 40.0), support: 10 }];
/// let truth = vec![Point::ORIGIN, Point::new(9_000.0, 0.0)];
/// let d = rank_distances(&inferred, &truth);
/// assert_eq!(d, vec![Some(50.0), None]);
/// ```
pub fn rank_distances(inferred: &[InferredLocation], truth: &[Point]) -> Vec<Option<f64>> {
    truth
        .iter()
        .enumerate()
        .map(|(k, t)| inferred.iter().find(|i| i.rank == k).map(|i| i.location.distance(*t)))
        .collect()
}

/// Aggregated attack results over a population of users.
///
/// # Examples
///
/// ```
/// use privlocad_attack::evaluation::AttackStats;
///
/// let mut stats = AttackStats::new(2);
/// stats.record(&[Some(120.0), Some(800.0)]);
/// stats.record(&[Some(350.0), None]);
/// assert_eq!(stats.users(), 2);
/// assert!((stats.success_rate(0, 200.0) - 0.5).abs() < 1e-12);
/// assert!((stats.success_rate(1, 1_000.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackStats {
    /// distances[k] holds one entry per recorded user: the rank-k inference
    /// distance, or `None` when the attack produced nothing at that rank.
    distances: Vec<Vec<Option<f64>>>,
    users: usize,
}

impl AttackStats {
    /// Creates an aggregator tracking the first `max_rank` ranks.
    pub fn new(max_rank: usize) -> Self {
        AttackStats { distances: vec![Vec::new(); max_rank], users: 0 }
    }

    /// Records one user's rank-wise distances (from [`rank_distances`]).
    ///
    /// Missing ranks beyond `user.len()` are recorded as failures.
    pub fn record(&mut self, user: &[Option<f64>]) {
        for (k, bucket) in self.distances.iter_mut().enumerate() {
            bucket.push(user.get(k).copied().flatten());
        }
        self.users += 1;
    }

    /// Number of users recorded.
    pub fn users(&self) -> usize {
        self.users
    }

    /// Fraction of users whose rank-`k` inference landed within
    /// `threshold_m` meters (the paper's attack success rate).
    ///
    /// Returns 0 when no users are recorded.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a tracked rank.
    pub fn success_rate(&self, k: usize, threshold_m: f64) -> f64 {
        let bucket = &self.distances[k];
        if bucket.is_empty() {
            return 0.0;
        }
        let hits = bucket.iter().filter(|d| matches!(d, Some(x) if *x <= threshold_m)).count();
        hits as f64 / bucket.len() as f64
    }

    /// Empirical CDF of the rank-`k` inference distance evaluated at each
    /// of the `thresholds` (meters): the per-threshold success rates that
    /// make up one curve of Fig. 6.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a tracked rank.
    pub fn success_curve(&self, k: usize, thresholds: &[f64]) -> Vec<f64> {
        thresholds.iter().map(|&t| self.success_rate(k, t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inf(rank: usize, x: f64, y: f64) -> InferredLocation {
        InferredLocation { rank, location: Point::new(x, y), support: 1 }
    }

    #[test]
    fn rank_distances_pairs_by_rank() {
        let inferred = vec![inf(0, 0.0, 100.0), inf(1, 5_000.0, 0.0)];
        let truth = vec![Point::ORIGIN, Point::new(5_000.0, 50.0)];
        let d = rank_distances(&inferred, &truth);
        assert_eq!(d.len(), 2);
        assert!((d[0].unwrap() - 100.0).abs() < 1e-12);
        assert!((d[1].unwrap() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn missing_rank_is_none() {
        let inferred = vec![inf(0, 0.0, 0.0)];
        let truth = vec![Point::ORIGIN, Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let d = rank_distances(&inferred, &truth);
        assert_eq!(d, vec![Some(0.0), None, None]);
    }

    #[test]
    fn empty_truth_empty_result() {
        assert!(rank_distances(&[inf(0, 0.0, 0.0)], &[]).is_empty());
    }

    #[test]
    fn success_rate_counts_thresholds_inclusively() {
        let mut s = AttackStats::new(1);
        s.record(&[Some(200.0)]);
        s.record(&[Some(201.0)]);
        assert!((s.success_rate(0, 200.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn none_counts_as_failure() {
        let mut s = AttackStats::new(2);
        s.record(&[Some(10.0)]); // rank-1 missing entirely
        assert!((s.success_rate(0, 100.0) - 1.0).abs() < 1e-12);
        assert_eq!(s.success_rate(1, 1e12), 0.0);
    }

    #[test]
    fn success_curve_is_monotone() {
        let mut s = AttackStats::new(1);
        for d in [50.0, 150.0, 250.0, 400.0, 900.0] {
            s.record(&[Some(d)]);
        }
        let curve = s.success_curve(0, &[100.0, 200.0, 300.0, 500.0, 1_000.0]);
        for w in curve.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!((curve[0] - 0.2).abs() < 1e-12);
        assert!((curve[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats() {
        let s = AttackStats::new(3);
        assert_eq!(s.users(), 0);
        assert_eq!(s.distances.len(), 3);
        assert_eq!(s.success_rate(0, 100.0), 0.0);
    }
}
