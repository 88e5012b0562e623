//! Privacy-risk assessment — the edge's "assess the risk of location
//! privacy breaches" role (Section I).
//!
//! Before Edge-PrivLocAd chooses an LPPM per location, it must know which
//! locations are *top* (longitudinally exposed, needing permanent
//! obfuscation) and which are nomadic (safe under one-time geo-IND). This
//! module quantifies that exposure: per-location release counts, the
//! privacy budget a naive one-time mechanism would have burned under basic
//! composition, and a traffic-light recommendation.

use privlocad_attack::LocationProfile;
use privlocad_geo::Point;
use privlocad_mechanisms::basic_composition;
use serde::{Deserialize, Serialize};

/// Recommendation for protecting one location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Recommendation {
    /// Rarely visited: one-time geo-IND noise per report suffices.
    OneTimeGeoInd,
    /// Routinely revisited: only a permanent candidate set (the n-fold
    /// Gaussian mechanism) prevents longitudinal averaging.
    PermanentObfuscation,
}

impl std::fmt::Display for Recommendation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Recommendation::OneTimeGeoInd => write!(f, "one-time geo-IND"),
            Recommendation::PermanentObfuscation => write!(f, "permanent obfuscation"),
        }
    }
}

/// The longitudinal exposure of one profiled location.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocationRisk {
    /// The profiled location.
    pub location: Point,
    /// How many times it was (or would be) reported in the window.
    pub releases: usize,
    /// The ε a one-time `(ε₀, δ₀)` mechanism would have accumulated over
    /// those releases under basic composition.
    pub composed_epsilon: f64,
    /// The expected attacker error after averaging `releases` independent
    /// noisy reports with per-report deviation σ₀: `σ₀/√releases` (meters).
    /// This is the longitudinal attack's convergence rate.
    pub attacker_error_m: f64,
    /// The recommendation for this location.
    pub recommendation: Recommendation,
}

/// A user's aggregated risk report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RiskReport {
    /// Per-location risks, most-released first.
    pub locations: Vec<LocationRisk>,
    /// The profile's location entropy (low entropy ⇒ routine-bound user
    /// ⇒ high longitudinal exposure; cf. Fig. 3).
    pub entropy: f64,
}

/// Configuration of the risk assessor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RiskAssessor {
    /// Per-release ε of the hypothetical one-time mechanism.
    pub one_time_epsilon: f64,
    /// Per-release δ of the hypothetical one-time mechanism.
    pub one_time_delta: f64,
    /// Per-release noise deviation σ₀ in meters (sets the attacker-error
    /// estimate scale).
    pub one_time_sigma_m: f64,
    /// Locations released at least this many times per window are flagged
    /// for permanent obfuscation.
    pub release_threshold: usize,
}

impl Default for RiskAssessor {
    fn default() -> Self {
        // One-time planar Laplace at l = ln 4, r = 200 m: ε per release is
        // ln 4, per-report radial deviation ≈ sqrt(6)/ε_m ≈ 353 m.
        RiskAssessor {
            one_time_epsilon: 4f64.ln(),
            one_time_delta: 1e-9,
            one_time_sigma_m: 353.0,
            release_threshold: 10,
        }
    }
}

impl RiskAssessor {
    /// Assesses the longitudinal exposure of a profiled window.
    pub fn assess(&self, profile: &LocationProfile) -> RiskReport {
        let locations = profile
            .iter()
            .map(|entry| {
                let releases = entry.frequency;
                let composed_epsilon =
                    basic_composition(self.one_time_epsilon, self.one_time_delta, releases.max(1))
                        .map(|(e, _)| e)
                        .unwrap_or(f64::INFINITY);
                let attacker_error_m = self.one_time_sigma_m / (releases.max(1) as f64).sqrt();
                let recommendation = if releases >= self.release_threshold {
                    Recommendation::PermanentObfuscation
                } else {
                    Recommendation::OneTimeGeoInd
                };
                LocationRisk {
                    location: entry.location,
                    releases,
                    composed_epsilon,
                    attacker_error_m,
                    recommendation,
                }
            })
            .collect();
        RiskReport { locations, entropy: profile.entropy() }
    }
}

impl RiskReport {
    /// The locations flagged for permanent obfuscation.
    pub fn flagged(&self) -> Vec<&LocationRisk> {
        self.locations
            .iter()
            .filter(|l| l.recommendation == Recommendation::PermanentObfuscation)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_attack::ProfileEntry;

    fn profile(freqs: &[usize]) -> LocationProfile {
        LocationProfile::from_entries(freqs.iter().enumerate().map(|(i, &f)| ProfileEntry {
            location: Point::new(i as f64 * 10_000.0, 0.0),
            frequency: f,
        }))
    }

    #[test]
    fn routine_locations_flagged_nomadic_not() {
        let report = RiskAssessor::default().assess(&profile(&[500, 40, 3, 1]));
        assert_eq!(report.locations.len(), 4);
        assert_eq!(report.locations[0].recommendation, Recommendation::PermanentObfuscation);
        assert_eq!(report.locations[1].recommendation, Recommendation::PermanentObfuscation);
        assert_eq!(report.locations[2].recommendation, Recommendation::OneTimeGeoInd);
        assert_eq!(report.locations[3].recommendation, Recommendation::OneTimeGeoInd);
        assert_eq!(report.flagged().len(), 2);
    }

    #[test]
    fn composed_epsilon_grows_linearly() {
        let report = RiskAssessor::default().assess(&profile(&[1000, 10]));
        let heavy = report.locations[0].composed_epsilon;
        let light = report.locations[1].composed_epsilon;
        assert!((heavy / light - 100.0).abs() < 1e-9);
        assert!((heavy - 1000.0 * 4f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn attacker_error_shrinks_with_sqrt_releases() {
        let report = RiskAssessor::default().assess(&profile(&[400]));
        // 353/√400 ≈ 17.7 m — the meter-scale convergence of Fig. 4.
        assert!((report.locations[0].attacker_error_m - 353.0 / 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_is_riskless() {
        let report = RiskAssessor::default().assess(&LocationProfile::default());
        assert!(report.locations.is_empty());
        assert!(report.flagged().is_empty());
        assert_eq!(report.entropy, 0.0);
    }

    #[test]
    fn threshold_is_configurable() {
        let assessor = RiskAssessor { release_threshold: 100, ..RiskAssessor::default() };
        let report = assessor.assess(&profile(&[50]));
        assert_eq!(report.locations[0].recommendation, Recommendation::OneTimeGeoInd);
    }

    #[test]
    fn recommendation_display() {
        assert_eq!(Recommendation::OneTimeGeoInd.to_string(), "one-time geo-IND");
        assert_eq!(Recommendation::PermanentObfuscation.to_string(), "permanent obfuscation");
    }
}
