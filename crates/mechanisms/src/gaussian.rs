use privlocad_geo::{rng::uniform_angle, Point};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::{GeoIndParams, Lppm, MechanismError};

/// The paper's n-fold Gaussian mechanism (Definition 7, Algorithm 3).
///
/// Given a real location `p`, the mechanism releases
/// `LPPM(p) = (p + X₁, …, p + X_n)` with `Xᵢ` i.i.d. isotropic Gaussian
/// noise of per-axis deviation `σ = (√n·r/ε)·sqrt(ln(1/δ²) + ε)`
/// (Theorem 2). Because the sample mean of the outputs is a sufficient
/// statistic for `p` and is distributed `N(p, σ²/n)`, the *joint* release
/// satisfies `(r, ε, δ, n)`-geo-IND — releasing n candidates costs no more
/// privacy than releasing their mean, which matches the 1-fold calibration
/// of Lemma 1.
///
/// Sampling follows Algorithm 3 exactly: the radius comes from inverting
/// the Rayleigh CDF `F_R(r) = 1 − e^{−r²/2σ²}` and the angle is uniform.
///
/// # Examples
///
/// ```
/// use privlocad_geo::{rng::seeded, Point};
/// use privlocad_mechanisms::{GeoIndParams, Lppm, NFoldGaussian};
///
/// let mech = NFoldGaussian::new(GeoIndParams::new(500.0, 1.5, 0.01, 10)?);
/// let mut rng = seeded(11);
/// let set = mech.obfuscate(Point::new(100.0, 100.0), &mut rng);
/// assert_eq!(set.len(), 10);
/// # Ok::<(), privlocad_mechanisms::MechanismError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NFoldGaussian {
    params: GeoIndParams,
    sigma: f64,
}

impl NFoldGaussian {
    /// Creates the mechanism, pre-computing σ from Theorem 2.
    pub fn new(params: GeoIndParams) -> Self {
        NFoldGaussian { params, sigma: params.sigma() }
    }

    /// The geo-IND parameters this mechanism is calibrated for.
    #[inline]
    pub fn params(&self) -> GeoIndParams {
        self.params
    }

    /// The per-axis noise standard deviation σ (meters).
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws a single obfuscated location (one fold of Algorithm 3).
    pub fn sample_one<R: Rng + ?Sized>(&self, real: Point, rng: &mut R) -> Point {
        let theta = uniform_angle(rng);
        let s: f64 = rng.gen();
        let r = self.radial_quantile(s);
        real.offset_polar(r, theta)
    }

    /// Quantile of the noise radius: `F_R⁻¹(s) = σ·sqrt(−2·ln(1−s))`.
    ///
    /// # Panics
    ///
    /// Panics if `s ∉ [0, 1)`.
    pub fn radial_quantile(&self, s: f64) -> f64 {
        assert!((0.0..1.0).contains(&s), "probability {s} must be in [0, 1)");
        self.sigma * (-2.0 * (1.0 - s).ln()).sqrt()
    }

    /// The confidence radius `r_α` with `Pr[dist(p, q) > r_α] ≤ α`
    /// (Rayleigh tail: `r_α = σ·sqrt(−2·ln α)`).
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidProbability`] if `α ∉ (0, 1)`.
    pub fn confidence_radius(&self, alpha: f64) -> Result<f64, MechanismError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(MechanismError::InvalidProbability(alpha));
        }
        Ok(self.sigma * (-2.0 * alpha.ln()).sqrt())
    }
}

impl Lppm for NFoldGaussian {
    fn obfuscate_into(&self, real: Point, rng: &mut dyn RngCore, out: &mut Vec<Point>) {
        out.reserve(self.params.n());
        for _ in 0..self.params.n() {
            out.push(self.sample_one(real, rng));
        }
    }

    fn output_count(&self) -> usize {
        self.params.n()
    }

    fn name(&self) -> &str {
        "n-fold-gaussian"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_geo::{centroid, rng::seeded};

    fn mech(r: f64, eps: f64, delta: f64, n: usize) -> NFoldGaussian {
        NFoldGaussian::new(GeoIndParams::new(r, eps, delta, n).unwrap())
    }

    /// CDF of the noise radius (Equation 15), `F_R(r) = 1 − e^{−r²/2σ²}`:
    /// the analytic law the quantile is checked against.
    fn radial_cdf(m: &NFoldGaussian, r: f64) -> f64 {
        1.0 - (-r * r / (2.0 * m.sigma() * m.sigma())).exp()
    }

    #[test]
    fn releases_n_outputs() {
        let m = mech(500.0, 1.0, 0.01, 10);
        let mut rng = seeded(2);
        assert_eq!(m.obfuscate(Point::ORIGIN, &mut rng).len(), 10);
        assert_eq!(m.output_count(), 10);
    }

    #[test]
    fn seeded_set_bits_are_pinned_at_the_paper_defaults() {
        // Algorithm 3 at r = 500 m, ε = 1, δ = 0.01, n = 10: the first and
        // last candidate of one seeded set, bit for bit (≈ (−3996.90,
        // 4613.26) and (−3266.20, −4136.11)).
        let m = mech(500.0, 1.0, 0.01, 10);
        let set = m.obfuscate(Point::new(1_000.0, -2_000.0), &mut seeded(2022));
        let bits = |p: Point| (p.x.to_bits(), p.y.to_bits());
        assert_eq!(bits(set[0]), (0xc0af_39cf_1a79_8264, 0x40b2_0543_3af1_7bb1));
        assert_eq!(bits(set[9]), (0xc0a9_8466_22aa_9216, 0xc0b0_281b_d450_6880));
    }

    #[test]
    fn radial_quantile_inverts_cdf() {
        let m = mech(500.0, 1.0, 0.01, 3);
        for &s in &[0.0, 0.1, 0.5, 0.9, 0.999] {
            let r = m.radial_quantile(s);
            assert!((radial_cdf(&m, r) - s).abs() < 1e-12, "s={s}");
        }
    }

    #[test]
    fn per_axis_deviation_matches_sigma() {
        let m = mech(500.0, 1.0, 0.01, 1);
        let mut rng = seeded(8);
        let n = 60_000;
        let xs: Vec<f64> = (0..n).map(|_| m.sample_one(Point::ORIGIN, &mut rng).x).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.02 * m.sigma(), "mean {mean}");
        assert!(
            (var.sqrt() - m.sigma()).abs() < 0.02 * m.sigma(),
            "sd {} vs sigma {}",
            var.sqrt(),
            m.sigma()
        );
    }

    #[test]
    fn sample_mean_concentrates_like_sigma_over_sqrt_n() {
        let n_fold = 10usize;
        let m = mech(500.0, 1.0, 0.01, n_fold);
        let mut rng = seeded(14);
        let trials = 4_000;
        let real = Point::new(123.0, -456.0);
        let mut dev = 0.0;
        for _ in 0..trials {
            let outs = m.obfuscate(real, &mut rng);
            // The sample mean is the release's sufficient statistic (Section VI).
            let mean = centroid(&outs).unwrap();
            dev += (mean.x - real.x).powi(2) + (mean.y - real.y).powi(2);
        }
        // E[|mean − p|²] = 2σ²/n.
        let observed = dev / trials as f64;
        let expected = 2.0 * m.sigma().powi(2) / n_fold as f64;
        assert!(
            (observed - expected).abs() < 0.06 * expected,
            "observed {observed} expected {expected}"
        );
    }

    #[test]
    fn confidence_radius_matches_rayleigh_tail() {
        let m = mech(500.0, 1.0, 0.01, 1);
        let r = m.confidence_radius(0.05).unwrap();
        assert!((radial_cdf(&m, r) - 0.95).abs() < 1e-12);
        assert!(m.confidence_radius(0.0).is_err());
    }

    #[test]
    fn sigma_equals_params_sigma() {
        let p = GeoIndParams::new(700.0, 1.5, 0.01, 6).unwrap();
        assert_eq!(NFoldGaussian::new(p).sigma(), p.sigma());
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(mech(500.0, 1.0, 0.01, 1).name(), "n-fold-gaussian");
    }
}
