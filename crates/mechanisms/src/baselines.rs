use privlocad_geo::{Circle, Point};
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::{GeoIndParams, Lppm, NFoldGaussian};

/// The naïve post-processing baseline of Section VII-A.
///
/// First obfuscates the real location once with the 1-fold Gaussian
/// mechanism (`(r, ε, δ, 1)`-geo-IND), then uniformly samples `n` locations
/// in a disc around that single obfuscated location. Because the extra
/// samples depend only on the released point, this is pure post-processing
/// and the privacy guarantee is unchanged — but the `n` outputs are all
/// clustered around one (possibly badly placed) anchor, so the utilization
/// rate improves far less than under the n-fold mechanism (Fig. 7b).
///
/// The paper does not pin down the spread radius; we default to the
/// mechanism's own σ so the spread is commensurate with the noise scale,
/// and expose it for sensitivity analysis.
///
/// # Examples
///
/// ```
/// use privlocad_geo::{rng::seeded, Point};
/// use privlocad_mechanisms::{GeoIndParams, Lppm, NaivePostProcessing};
///
/// let m = NaivePostProcessing::new(GeoIndParams::new(500.0, 1.0, 0.01, 5)?);
/// let mut rng = seeded(21);
/// assert_eq!(m.obfuscate(Point::ORIGIN, &mut rng).len(), 5);
/// # Ok::<(), privlocad_mechanisms::MechanismError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NaivePostProcessing {
    params: GeoIndParams,
    base: NFoldGaussian,
    spread_radius: f64,
}

impl NaivePostProcessing {
    /// Creates the baseline with the default spread radius (the 1-fold σ).
    pub fn new(params: GeoIndParams) -> Self {
        let spread = params.sigma_single();
        Self::with_spread_radius(params, spread)
    }

    /// Creates the baseline with an explicit post-processing spread radius.
    ///
    /// # Panics
    ///
    /// Panics if `spread_radius` is not positive and finite.
    fn with_spread_radius(params: GeoIndParams, spread_radius: f64) -> Self {
        assert!(
            spread_radius.is_finite() && spread_radius > 0.0,
            "spread radius must be positive and finite"
        );
        // lint:allow(panic-hygiene): provably infallible — with_n only rejects n = 0
        let single = params.with_n(1).expect("n = 1 is always valid");
        NaivePostProcessing { params, base: NFoldGaussian::new(single), spread_radius }
    }

    /// The geo-IND parameters (of the single anchored release).
    #[inline]
    pub fn params(&self) -> GeoIndParams {
        self.params
    }
}

impl Lppm for NaivePostProcessing {
    fn obfuscate_into(&self, real: Point, rng: &mut dyn RngCore, out: &mut Vec<Point>) {
        let anchor = self.base.sample_one(real, rng);
        let disc = Circle::new(anchor, self.spread_radius)
            // lint:allow(panic-hygiene): provably infallible — the constructor validated the radius and mechanism outputs are finite
            .expect("validated spread radius and finite anchor");
        out.reserve(self.params.n());
        for _ in 0..self.params.n() {
            out.push(disc.sample_uniform(rng));
        }
    }

    fn output_count(&self) -> usize {
        self.params.n()
    }

    fn name(&self) -> &str {
        "naive-post-processing"
    }
}

/// The plain-composition baseline of Section VII-A.
///
/// Releases `n` independent Gaussian outputs, each calibrated to
/// `(r, ε/n, δ/n, 1)`-geo-IND so that the basic composition theorem yields
/// `(r, ε, δ, n)` overall. Each individual output therefore carries noise
/// `σ_c = (n·r/ε)·sqrt(ln(n²/δ²) + ε/n)` — a factor ≳ √n larger than the
/// n-fold mechanism's per-output σ, which is why composition *loses*
/// utilization as n grows (Fig. 7c). This baseline quantifies the gain of
/// the sufficient-statistics analysis.
///
/// # Examples
///
/// ```
/// use privlocad_geo::{rng::seeded, Point};
/// use privlocad_mechanisms::{GeoIndParams, Lppm, PlainComposition};
///
/// let comp = PlainComposition::new(GeoIndParams::new(500.0, 1.0, 0.01, 10)?);
/// let mut rng = seeded(22);
/// assert_eq!(comp.obfuscate(Point::ORIGIN, &mut rng).len(), 10);
/// # Ok::<(), privlocad_mechanisms::MechanismError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlainComposition {
    params: GeoIndParams,
    per_output: NFoldGaussian,
}

impl PlainComposition {
    /// Creates the baseline by splitting the budget across `n` outputs.
    pub fn new(params: GeoIndParams) -> Self {
        PlainComposition { params, per_output: NFoldGaussian::new(params.composition_split()) }
    }

    /// The overall geo-IND parameters guaranteed by composition.
    #[inline]
    pub fn params(&self) -> GeoIndParams {
        self.params
    }
}

impl Lppm for PlainComposition {
    fn obfuscate_into(&self, real: Point, rng: &mut dyn RngCore, out: &mut Vec<Point>) {
        out.reserve(self.params.n());
        for _ in 0..self.params.n() {
            out.push(self.per_output.sample_one(real, rng));
        }
    }

    fn output_count(&self) -> usize {
        self.params.n()
    }

    fn name(&self) -> &str {
        "plain-composition"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_geo::rng::seeded;

    fn params(n: usize) -> GeoIndParams {
        GeoIndParams::new(500.0, 1.0, 0.01, n).unwrap()
    }

    #[test]
    fn post_processing_outputs_cluster_around_anchor() {
        let m = NaivePostProcessing::new(params(10));
        let mut rng = seeded(5);
        let outs = m.obfuscate(Point::ORIGIN, &mut rng);
        assert_eq!(outs.len(), 10);
        // All outputs within 2·spread of each other (diameter of the disc).
        let max_pair = outs
            .iter()
            .flat_map(|a| outs.iter().map(move |b| a.distance(*b)))
            .fold(0.0f64, f64::max);
        assert!(max_pair <= 2.0 * m.spread_radius + 1e-9);
    }

    #[test]
    fn post_processing_default_spread_is_single_sigma() {
        let p = params(7);
        let m = NaivePostProcessing::new(p);
        assert!((m.spread_radius - p.sigma_single()).abs() < 1e-12);
    }

    #[test]
    fn post_processing_custom_spread() {
        let m = NaivePostProcessing::with_spread_radius(params(3), 250.0);
        assert_eq!(m.spread_radius, 250.0);
    }

    #[test]
    #[should_panic(expected = "spread radius")]
    fn post_processing_rejects_bad_spread() {
        let _ = NaivePostProcessing::with_spread_radius(params(3), 0.0);
    }

    #[test]
    fn composition_noise_larger_than_n_fold() {
        for n in 2..=10 {
            let p = params(n);
            let comp = PlainComposition::new(p);
            let nfold = NFoldGaussian::new(p);
            assert!(
                comp.per_output.sigma() > nfold.sigma(),
                "n = {n}: composition σ {} should exceed n-fold σ {}",
                comp.per_output.sigma(),
                nfold.sigma()
            );
        }
    }

    #[test]
    fn composition_matches_split_formula() {
        let p = params(10);
        let comp = PlainComposition::new(p);
        // σ_c = (n·r/ε)·sqrt(ln(n²/δ²) + ε/n)
        let expected = 10.0 * 500.0 / 1.0 * ((100.0f64 / (0.01 * 0.01)).ln() + 0.1).sqrt();
        assert!((comp.per_output.sigma() - expected).abs() < 1e-6);
    }

    #[test]
    fn composition_outputs_are_spread_out() {
        let p = params(10);
        let comp = PlainComposition::new(p);
        let mut rng = seeded(77);
        let outs = comp.obfuscate(Point::ORIGIN, &mut rng);
        assert_eq!(outs.len(), 10);
        // RMS distance from truth should be near √2·σ_c.
        let rms = (outs.iter().map(|q| q.distance_sq(Point::ORIGIN)).sum::<f64>() / 10.0).sqrt();
        assert!(rms > comp.per_output.sigma() * 0.4); // loose sanity bound
    }

    #[test]
    fn n_one_composition_equals_single_fold() {
        let p = params(1);
        let comp = PlainComposition::new(p);
        let nfold = NFoldGaussian::new(p);
        assert!((comp.per_output.sigma() - nfold.sigma()).abs() < 1e-12);
    }

    #[test]
    fn names_are_distinct() {
        let p = params(2);
        assert_ne!(NaivePostProcessing::new(p).name(), PlainComposition::new(p).name());
    }
}
