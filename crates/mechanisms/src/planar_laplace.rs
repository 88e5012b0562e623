use privlocad_geo::{rng::uniform_angle, Point};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::lambert_w::w_m1;
use crate::{Lppm, MechanismError, PlanarLaplaceParams};

/// The planar Laplace mechanism of Andrés et al. (CCS 2013), achieving
/// ε-geo-indistinguishability for a single released location.
///
/// The output density around the real location is `D(q) ∝ e^{−ε·d(p,q)}`.
/// Sampling is performed in polar coordinates: the angle is uniform and the
/// radius follows the distribution with CDF `C(r) = 1 − (1 + εr)·e^{−εr}`,
/// inverted through the Lambert `W₋₁` function.
///
/// In the paper this is the *one-time geo-IND* mechanism applied
/// independently to every check-in — the configuration that the
/// longitudinal location exposure attack (Section III) defeats.
///
/// # Examples
///
/// ```
/// use privlocad_geo::{rng::seeded, Point};
/// use privlocad_mechanisms::{PlanarLaplace, PlanarLaplaceParams};
///
/// // l = ln 2 at r = 200 m, the paper's strictest attacked setting.
/// let mech = PlanarLaplace::new(PlanarLaplaceParams::from_level(2f64.ln(), 200.0)?);
/// let mut rng = seeded(3);
/// let noisy = mech.sample(Point::ORIGIN, &mut rng);
/// assert!(noisy.is_finite());
/// # Ok::<(), privlocad_mechanisms::MechanismError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanarLaplace {
    params: PlanarLaplaceParams,
}

impl PlanarLaplace {
    /// Creates the mechanism from validated parameters.
    pub fn new(params: PlanarLaplaceParams) -> Self {
        PlanarLaplace { params }
    }

    /// The mechanism parameters.
    #[inline]
    pub fn params(&self) -> PlanarLaplaceParams {
        self.params
    }

    /// Releases one obfuscated location for `real`.
    pub fn sample<R: Rng + ?Sized>(&self, real: Point, rng: &mut R) -> Point {
        let theta = uniform_angle(rng);
        let p: f64 = rng.gen();
        let r = self.radial_quantile(p);
        real.offset_polar(r, theta)
    }

    /// CDF of the noise radius: `C(r) = 1 − (1 + εr)·e^{−εr}`.
    // lint:allow(dead-pub): integration-test hook: the mechanisms proptests check the radius quantile against this analytic CDF
    pub fn radial_cdf(&self, r: f64) -> f64 {
        if r <= 0.0 {
            return 0.0;
        }
        let eps = self.params.epsilon_per_meter();
        1.0 - (1.0 + eps * r) * (-eps * r).exp()
    }

    /// Quantile (inverse CDF) of the noise radius:
    /// `C⁻¹(p) = −(1/ε)·(W₋₁((p−1)/e) + 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    pub fn radial_quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "probability {p} must be in [0, 1)");
        // lint:allow(float-eq): quantile of exactly p = 0 is exactly 0; the assert above already bounds p
        if p == 0.0 {
            return 0.0;
        }
        let eps = self.params.epsilon_per_meter();
        let x = (p - 1.0) / std::f64::consts::E;
        -(w_m1(x) + 1.0) / eps
    }

    /// The confidence radius `r_α` with `Pr[dist(p, q) > r_α] ≤ α`.
    ///
    /// The de-obfuscation attack (Algorithm 1) uses `r₀.₀₅` as its cluster
    /// trimming radius.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidProbability`] if `α ∉ (0, 1)`.
    pub fn confidence_radius(&self, alpha: f64) -> Result<f64, MechanismError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(MechanismError::InvalidProbability(alpha));
        }
        Ok(self.radial_quantile(1.0 - alpha))
    }
}

impl Lppm for PlanarLaplace {
    fn obfuscate_into(&self, real: Point, rng: &mut dyn RngCore, out: &mut Vec<Point>) {
        out.push(self.sample(real, rng));
    }

    fn output_count(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "planar-laplace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_geo::rng::seeded;

    fn mech(l: f64, r: f64) -> PlanarLaplace {
        PlanarLaplace::new(PlanarLaplaceParams::from_level(l, r).unwrap())
    }

    /// Expected distance between the real and the released location,
    /// `E[R] = 2/ε`: the analytic mean the sampler is checked against.
    fn expected_distance(m: &PlanarLaplace) -> f64 {
        2.0 / m.params().epsilon_per_meter()
    }

    #[test]
    fn quantile_inverts_cdf() {
        let m = mech(4f64.ln(), 200.0);
        for &p in &[0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.9999] {
            let r = m.radial_quantile(p);
            assert!((m.radial_cdf(r) - p).abs() < 1e-10, "p={p} r={r}");
        }
    }

    #[test]
    fn quantile_zero_is_zero_radius() {
        let m = mech(2f64.ln(), 200.0);
        assert_eq!(m.radial_quantile(0.0), 0.0);
    }

    #[test]
    fn cdf_monotone_nonnegative() {
        let m = mech(2f64.ln(), 200.0);
        let mut prev = -1.0;
        for i in 0..200 {
            let r = i as f64 * 25.0;
            let c = m.radial_cdf(r);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(m.radial_cdf(-5.0), 0.0);
    }

    #[test]
    fn empirical_radius_matches_cdf() {
        let m = mech(4f64.ln(), 200.0);
        let mut rng = seeded(5);
        let n = 50_000;
        let within_300: f64 = (0..n)
            .filter(|_| m.sample(Point::ORIGIN, &mut rng).distance(Point::ORIGIN) <= 300.0)
            .count() as f64;
        let frac = within_300 / n as f64;
        let expected = m.radial_cdf(300.0);
        assert!((frac - expected).abs() < 0.01, "frac {frac} expected {expected}");
    }

    #[test]
    fn empirical_mean_distance_matches_theory() {
        let m = mech(2f64.ln(), 200.0); // E[R] = 2/ε = 400/ln2 ≈ 577 m
        let mut rng = seeded(6);
        let n = 50_000;
        let mean: f64 =
            (0..n).map(|_| m.sample(Point::ORIGIN, &mut rng).distance(Point::ORIGIN)).sum::<f64>()
                / n as f64;
        let expected = expected_distance(&m);
        assert!((mean - expected).abs() < 0.02 * expected, "mean {mean} vs {expected}");
    }

    #[test]
    fn confidence_radius_bounds_tail() {
        let m = mech(2f64.ln(), 200.0);
        let r95 = m.confidence_radius(0.05).unwrap();
        assert!((m.radial_cdf(r95) - 0.95).abs() < 1e-9);
        let mut rng = seeded(9);
        let n = 50_000;
        let beyond = (0..n)
            .filter(|_| m.sample(Point::ORIGIN, &mut rng).distance(Point::ORIGIN) > r95)
            .count() as f64;
        let frac = beyond / n as f64;
        assert!((frac - 0.05).abs() < 0.01, "tail fraction {frac}");
    }

    #[test]
    fn confidence_radius_rejects_bad_alpha() {
        let m = mech(2f64.ln(), 200.0);
        assert!(m.confidence_radius(0.0).is_err());
        assert!(m.confidence_radius(1.0).is_err());
    }

    #[test]
    fn stricter_privacy_means_more_noise() {
        // Smaller l (stricter) → smaller ε → larger expected radius.
        let strict = mech(2f64.ln(), 200.0);
        let loose = mech(6f64.ln(), 200.0);
        assert!(expected_distance(&strict) > expected_distance(&loose));
    }

    #[test]
    fn geo_ind_density_ratio_holds_empirically() {
        // Discretize the plane into cells and verify
        // count₀(cell) ≤ e^{ε·d(p₀,p₁)}·count₁(cell) within sampling noise
        // for two nearby real locations.
        let m = mech(4f64.ln(), 200.0);
        let eps = m.params().epsilon_per_meter();
        let p0 = Point::ORIGIN;
        let p1 = Point::new(100.0, 0.0);
        let bound = (eps * p0.distance(p1)).exp();
        let mut rng = seeded(12);
        let n = 200_000usize;
        let cell = 100.0;
        use std::collections::HashMap;
        let mut c0: HashMap<(i64, i64), f64> = HashMap::new();
        let mut c1: HashMap<(i64, i64), f64> = HashMap::new();
        let key = |p: Point| ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
        for _ in 0..n {
            *c0.entry(key(m.sample(p0, &mut rng))).or_default() += 1.0;
            *c1.entry(key(m.sample(p1, &mut rng))).or_default() += 1.0;
        }
        let mut checked = 0;
        for (k, v0) in &c0 {
            if *v0 < 200.0 {
                continue; // skip cells with too few samples for a stable ratio
            }
            let v1 = c1.get(k).copied().unwrap_or(0.0).max(1.0);
            let ratio = v0 / v1;
            assert!(ratio < bound * 1.35, "cell {k:?} ratio {ratio} bound {bound}");
            checked += 1;
        }
        assert!(checked > 10, "too few dense cells checked");
    }

    #[test]
    fn lppm_impl_releases_one_point() {
        let m = mech(2f64.ln(), 200.0);
        let mut rng = seeded(1);
        assert_eq!(m.obfuscate(Point::ORIGIN, &mut rng).len(), 1);
        assert_eq!(m.output_count(), 1);
        assert_eq!(m.name(), "planar-laplace");
    }
}
