//! Summary statistics, quantiles, empirical CDFs, and binomial confidence
//! intervals.

use privlocad_mechanisms::special::normal_quantile;
use serde::{Deserialize, Serialize};

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample, by linear interpolation
/// between order statistics (type-7, the common default).
///
/// # Panics
///
/// Panics if `values` is empty, `q ∉ [0, 1]`, or a value is NaN.
///
/// # Examples
///
/// ```
/// use privlocad_metrics::stats::quantile;
///
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(quantile(&xs, 0.0), 1.0);
/// assert_eq!(quantile(&xs, 0.5), 2.5);
/// assert_eq!(quantile(&xs, 1.0), 4.0);
/// ```
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level {q} must be in [0, 1]");
    let mut xs = values.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("values must not be NaN"));
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        xs[lo]
    } else {
        let w = pos - lo as f64;
        xs[lo] * (1.0 - w) + xs[hi] * w
    }
}

/// The paper's "minimal utilization rate υ at confidence α" (Equation 24):
/// the largest υ with `Pr(UR ≥ υ) = α`, i.e. the `(1 − α)`-quantile of the
/// UR sample.
///
/// # Panics
///
/// Panics under the same conditions as [`quantile`].
///
/// # Examples
///
/// ```
/// use privlocad_metrics::stats::min_rate_at_confidence;
///
/// let urs: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
/// let v = min_rate_at_confidence(&urs, 0.9);
/// assert!((v - 0.109).abs() < 0.01); // ~10th percentile
/// ```
pub fn min_rate_at_confidence(values: &[f64], alpha: f64) -> f64 {
    quantile(values, 1.0 - alpha)
}

/// Five-number-plus summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for singletons).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains NaN.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary of an empty sample");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = if values.len() > 1 {
            values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Summary {
            count: values.len(),
            mean,
            std_dev: var.sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            median: quantile(values, 0.5),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Spearman rank correlation coefficient between two paired samples, with
/// average ranks for ties.
///
/// Fig. 3's claim — "the users' location entropy declines with the
/// increase of the number of check-ins" — is a monotone association, which
/// Spearman's ρ measures directly (ρ < 0 confirms the decline without
/// assuming linearity).
///
/// # Panics
///
/// Panics if the slices differ in length, are shorter than 2, or contain
/// NaN.
///
/// # Examples
///
/// ```
/// use privlocad_metrics::stats::spearman;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert!((spearman(&xs, &[10.0, 20.0, 30.0, 40.0]) - 1.0).abs() < 1e-12);
/// assert!((spearman(&xs, &[9.0, 7.0, 5.0, 3.0]) + 1.0).abs() < 1e-12);
/// ```
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "paired samples must have equal length");
    assert!(xs.len() >= 2, "at least two pairs are required");
    let rx = average_ranks(xs);
    let ry = average_ranks(ys);
    // Pearson correlation of the ranks.
    let n = rx.len() as f64;
    let mean = (n + 1.0) / 2.0;
    let mut num = 0.0;
    let mut den_x = 0.0;
    let mut den_y = 0.0;
    for (a, b) in rx.iter().zip(&ry) {
        num += (a - mean) * (b - mean);
        den_x += (a - mean) * (a - mean);
        den_y += (b - mean) * (b - mean);
    }
    // lint:allow(float-eq): a constant sample yields an exactly-zero sum of squares; this guards the 0/0 case only
    if den_x == 0.0 || den_y == 0.0 {
        return 0.0; // a constant sample carries no ordering information
    }
    num / (den_x * den_y).sqrt()
}

fn average_ranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("values must not be NaN"));
    let mut ranks = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Wilson score interval for a binomial proportion.
///
/// The attack success rates of Fig. 6 are proportions over a finite user
/// sample; the Wilson interval gives calibrated error bars even near 0
/// or 1 (where the naive ±z√(p(1−p)/n) interval collapses), which matters
/// because the defense arm sits at ~0 %.
///
/// Returns `(low, high)` at the given two-sided confidence level.
///
/// # Panics
///
/// Panics if `successes > trials`, `trials == 0`, or
/// `confidence ∉ (0, 1)`.
///
/// # Examples
///
/// ```
/// use privlocad_metrics::stats::wilson_interval;
///
/// let (lo, hi) = wilson_interval(0, 500, 0.95);
/// assert_eq!(lo, 0.0);
/// assert!(hi < 0.01); // "0 of 500" still bounds the rate below 1 %
/// ```
pub fn wilson_interval(successes: usize, trials: usize, confidence: f64) -> (f64, f64) {
    assert!(trials > 0, "at least one trial is required");
    assert!(successes <= trials, "successes cannot exceed trials");
    assert!(confidence > 0.0 && confidence < 1.0, "confidence must be in (0, 1)");
    let z = normal_quantile(1.0 - (1.0 - confidence) / 2.0);
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// An empirical cumulative distribution function.
///
/// # Examples
///
/// ```
/// use privlocad_metrics::stats::Ecdf;
///
/// let ecdf = Ecdf::new(&[1.0, 2.0, 2.0, 5.0]);
/// assert_eq!(ecdf.eval_many(&[0.0, 2.0, 10.0]), vec![0.0, 0.75, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// lint:allow(dead-pub): integration-test hook: the metrics proptests check ECDF monotonicity with it
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF of a sample.
    ///
    /// # Panics
    ///
    /// Panics if a value is NaN.
    pub fn new(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("values must not be NaN"));
        Ecdf { sorted }
    }

    /// `F(x)`: the fraction of the sample ≤ `x`.
    fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Evaluates the ECDF at each of `xs`.
    // lint:allow(dead-pub): integration-test hook: the metrics proptests check ECDF monotonicity with it
    pub fn eval_many(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.eval(x)).collect()
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` for an empty sample.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_extremes_and_median() {
        let xs = [10.0, 20.0, 30.0];
        assert_eq!(quantile(&xs, 0.0), 10.0);
        assert_eq!(quantile(&xs, 0.5), 20.0);
        assert_eq!(quantile(&xs, 1.0), 30.0);
        assert_eq!(quantile(&xs, 0.25), 15.0);
    }

    #[test]
    fn quantile_single_value() {
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn quantile_empty_panics() {
        let _ = quantile(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn quantile_out_of_range_panics() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn min_rate_is_low_quantile() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        let v = min_rate_at_confidence(&xs, 0.9);
        assert!((v - 0.1).abs() < 0.01);
        // Higher confidence → smaller guaranteed rate.
        assert!(min_rate_at_confidence(&xs, 0.99) < v);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.138).abs() < 1e-3);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
    }

    #[test]
    fn summary_of_singleton() {
        let s = Summary::of(&[3.0]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn spearman_extremes_and_independence() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let up: Vec<f64> = xs.iter().map(|x| x * x).collect(); // monotone, nonlinear
        assert!((spearman(&xs, &up) - 1.0).abs() < 1e-12);
        let down: Vec<f64> = xs.iter().map(|x| -x.exp()).collect();
        assert!((spearman(&xs, &down) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 1.0, 2.0, 3.0];
        let ys = [5.0, 5.0, 6.0, 7.0];
        let rho = spearman(&xs, &ys);
        assert!((rho - 1.0).abs() < 1e-12, "rho {rho}");
    }

    #[test]
    fn spearman_constant_sample_is_zero() {
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn spearman_length_mismatch() {
        let _ = spearman(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn wilson_contains_the_point_estimate() {
        for &(s, n) in &[(0usize, 10usize), (5, 10), (10, 10), (1, 1000), (999, 1000)] {
            let p = s as f64 / n as f64;
            let (lo, hi) = wilson_interval(s, n, 0.95);
            assert!(lo <= p + 1e-12 && p <= hi + 1e-12, "s={s} n={n}: [{lo}, {hi}]");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn wilson_narrows_with_more_trials() {
        let (lo1, hi1) = wilson_interval(50, 100, 0.95);
        let (lo2, hi2) = wilson_interval(500, 1_000, 0.95);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn wilson_zero_successes_has_positive_upper_bound() {
        let (lo, hi) = wilson_interval(0, 37_262, 0.95);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 2e-4, "hi {hi}");
    }

    #[test]
    fn wilson_matches_reference_value() {
        // Classic check: 8/10 at 95 % → (0.490, 0.943) (Wilson, two-sided).
        let (lo, hi) = wilson_interval(8, 10, 0.95);
        assert!((lo - 0.490).abs() < 0.005, "lo {lo}");
        assert!((hi - 0.943).abs() < 0.005, "hi {hi}");
    }

    #[test]
    #[should_panic(expected = "successes cannot exceed trials")]
    fn wilson_rejects_bad_counts() {
        let _ = wilson_interval(2, 1, 0.95);
    }

    #[test]
    fn ecdf_step_behaviour() {
        let e = Ecdf::new(&[1.0, 3.0]);
        assert_eq!(e.eval(0.99), 0.0);
        assert_eq!(e.eval(1.0), 0.5);
        assert_eq!(e.eval(2.9), 0.5);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
    }

    #[test]
    fn ecdf_empty() {
        let e = Ecdf::new(&[]);
        assert!(e.is_empty());
        assert_eq!(e.eval(5.0), 0.0);
    }

    #[test]
    fn ecdf_eval_many_is_monotone() {
        let e = Ecdf::new(&[0.5, 1.5, 2.5, 3.5]);
        let ys = e.eval_many(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        for w in ys.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
