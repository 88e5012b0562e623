//! Analytic and Monte-Carlo verification of the geo-IND guarantees.
//!
//! Theorem 2 calibrates the n-fold Gaussian mechanism conservatively. This
//! module computes the *exact* privacy curve of a Gaussian release (Balle &
//! Wang, ICML 2018) so tests and the evaluation harness can confirm that the
//! achieved `δ` at the configured `ε` is at most the claimed `δ` — i.e. that
//! the implementation really satisfies Definition 3 — and by how much the
//! paper's calibration overshoots.
//!
//! For a release whose sufficient statistic is Gaussian with per-axis
//! deviation `s` and worst-case mean shift `Δ` (the neighbouring distance
//! `r`), the tight hockey-stick divergence at `ε` is
//!
//! ```text
//! δ(ε) = Φ(Δ/2s − εs/Δ) − e^ε · Φ(−Δ/2s − εs/Δ)
//! ```
//!
//! The worst case over 2-D shifts of bounded norm is attained along a single
//! axis, so the 1-D formula applies verbatim.

use privlocad_geo::{rng::seeded, Point};

use crate::special::normal_cdf;
use crate::{GeoIndParams, Lppm, MechanismError, NFoldGaussian};

/// The exact `δ` achieved at privacy level `epsilon` by a Gaussian release
/// with per-axis deviation `sigma` under a mean shift of `shift`.
///
/// # Panics
///
/// Panics if `sigma` or `shift` is not positive and finite.
///
/// # Examples
///
/// ```
/// use privlocad_mechanisms::verifier::gaussian_delta;
///
/// // Huge noise relative to the shift: essentially no privacy failure mass.
/// assert!(gaussian_delta(1.0, 1.0, 1_000.0) < 1e-9);
/// // No noise would mean certain failure; tiny noise approaches 1.
/// assert!(gaussian_delta(1.0, 1.0, 0.01) > 0.99);
/// ```
// lint:allow(dead-pub): integration-test hook: tests/privacy_guarantees.rs and the mechanisms proptests check the exact privacy curve with it
pub fn gaussian_delta(epsilon: f64, shift: f64, sigma: f64) -> f64 {
    assert!(shift.is_finite() && shift > 0.0, "shift must be positive and finite");
    assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive and finite");
    let a = shift / (2.0 * sigma);
    let b = epsilon * sigma / shift;
    (normal_cdf(a - b) - epsilon.exp() * normal_cdf(-a - b)).max(0.0)
}

/// Outcome of verifying an n-fold Gaussian configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verification {
    /// The δ claimed by the parameters (Definition 3).
    pub claimed_delta: f64,
    /// The exact δ achieved at the configured ε (hockey-stick divergence).
    pub achieved_delta: f64,
}

impl Verification {
    /// Returns `true` if the achieved δ is within the claimed budget.
    pub fn holds(&self) -> bool {
        self.achieved_delta <= self.claimed_delta
    }
}

/// Verifies analytically that the n-fold Gaussian mechanism calibrated by
/// `params` satisfies its claimed `(r, ε, δ, n)`-geo-IND bound.
///
/// Because the sample mean (deviation `σ/√n`) is a sufficient statistic for
/// the real location, the joint release achieves exactly the privacy curve
/// of that 1-D Gaussian with shift `r`.
///
/// # Examples
///
/// ```
/// use privlocad_mechanisms::{verifier::verify_nfold_gaussian, GeoIndParams};
///
/// let v = verify_nfold_gaussian(GeoIndParams::new(500.0, 1.0, 0.01, 10)?);
/// assert!(v.holds());
/// # Ok::<(), privlocad_mechanisms::MechanismError>(())
/// ```
pub fn verify_nfold_gaussian(params: GeoIndParams) -> Verification {
    let s = params.sigma() / (params.n() as f64).sqrt();
    Verification {
        claimed_delta: params.delta(),
        achieved_delta: gaussian_delta(params.epsilon(), params.r(), s),
    }
}

/// Monte-Carlo estimate of the δ achieved by the n-fold Gaussian mechanism
/// at level `epsilon`, via the hockey-stick estimator
/// `δ = E₀[(1 − e^{ε − L})⁺]` where `L` is the privacy-loss random
/// variable between two real locations at distance `r`.
///
/// Used in tests to confirm the analytic curve against the actual sampler.
///
/// # Errors
///
/// Returns [`MechanismError::InvalidFold`] if `trials` is zero.
// lint:allow(dead-pub): integration-test hook: tests/privacy_guarantees.rs checks the analytic curve against the sampler with it
pub fn empirical_gaussian_delta(
    params: GeoIndParams,
    trials: usize,
    seed: u64,
) -> Result<f64, MechanismError> {
    if trials == 0 {
        return Err(MechanismError::InvalidFold(0));
    }
    let mech = NFoldGaussian::new(params);
    let sigma_sq = mech.sigma() * mech.sigma();
    let p0 = Point::ORIGIN;
    let p1 = Point::new(params.r(), 0.0);
    let eps = params.epsilon();
    let mut rng = seeded(seed);
    let mut acc = 0.0;
    for _ in 0..trials {
        let outputs = mech.obfuscate(p0, &mut rng);
        // L = log [ Pr(Q | p0) / Pr(Q | p1) ]
        //   = Σ (‖qᵢ − p1‖² − ‖qᵢ − p0‖²) / (2σ²)
        let loss: f64 = outputs
            .iter()
            .map(|q| (q.distance_sq(p1) - q.distance_sq(p0)) / (2.0 * sigma_sq))
            .sum();
        acc += (1.0 - (eps - loss).exp()).max(0.0);
    }
    Ok(acc / trials as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_hold_with_slack() {
        for &(eps, n) in &[(1.0, 1usize), (1.0, 10), (1.5, 1), (1.5, 10)] {
            for &r in &[500.0, 600.0, 700.0, 800.0] {
                let p = GeoIndParams::new(r, eps, 0.01, n).unwrap();
                let v = verify_nfold_gaussian(p);
                assert!(
                    v.holds(),
                    "(r={r}, ε={eps}, n={n}): achieved {} > claimed {}",
                    v.achieved_delta,
                    v.claimed_delta
                );
                // Theorem 2's calibration is conservative but not vacuous:
                // the slack factor claimed / achieved exceeds one.
                assert!(v.claimed_delta / v.achieved_delta > 1.0);
            }
        }
    }

    #[test]
    fn delta_decreases_with_sigma() {
        let d1 = gaussian_delta(1.0, 500.0, 800.0);
        let d2 = gaussian_delta(1.0, 500.0, 1_600.0);
        let d3 = gaussian_delta(1.0, 500.0, 3_200.0);
        assert!(d1 > d2 && d2 > d3);
    }

    #[test]
    fn delta_increases_with_shift() {
        let d1 = gaussian_delta(1.0, 100.0, 1_000.0);
        let d2 = gaussian_delta(1.0, 500.0, 1_000.0);
        assert!(d2 > d1);
    }

    #[test]
    fn delta_decreases_with_epsilon() {
        let d1 = gaussian_delta(0.5, 500.0, 1_000.0);
        let d2 = gaussian_delta(1.0, 500.0, 1_000.0);
        let d3 = gaussian_delta(2.0, 500.0, 1_000.0);
        assert!(d1 > d2 && d2 > d3);
    }

    #[test]
    fn n_fold_is_exactly_as_private_as_its_mean() {
        // The achieved δ depends only on σ/√n, which Theorem 2 keeps equal
        // to the 1-fold σ — so every n yields the identical privacy curve.
        let base = verify_nfold_gaussian(GeoIndParams::new(500.0, 1.0, 0.01, 1).unwrap());
        for n in [2usize, 5, 10, 50] {
            let v = verify_nfold_gaussian(GeoIndParams::new(500.0, 1.0, 0.01, n).unwrap());
            assert!((v.achieved_delta - base.achieved_delta).abs() < 1e-15, "n = {n}");
        }
    }

    #[test]
    fn monte_carlo_matches_analytic_curve() {
        let p = GeoIndParams::new(500.0, 1.0, 0.25, 5).unwrap();
        // Use a *less* private configuration (big δ ⇒ small σ) so the MC
        // estimator has non-trivial mass to find.
        let analytic = gaussian_delta(p.epsilon(), p.r(), p.sigma() / (p.n() as f64).sqrt());
        let mc = empirical_gaussian_delta(p, 200_000, 99).unwrap();
        assert!((mc - analytic).abs() < 5e-4, "monte carlo {mc} vs analytic {analytic}");
    }

    #[test]
    fn empirical_rejects_zero_trials() {
        let p = GeoIndParams::new(500.0, 1.0, 0.01, 1).unwrap();
        assert!(empirical_gaussian_delta(p, 0, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn gaussian_delta_rejects_bad_sigma() {
        let _ = gaussian_delta(1.0, 1.0, 0.0);
    }
}
