//! Radius-targeting limits of major LBA platforms (Table I of the paper).

use serde::{Deserialize, Serialize};

/// One mile in meters.
const MILE_M: f64 = 1_609.344;

/// A platform's allowed radius-targeting range, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadiusLimits {
    /// Platform name as surveyed in Table I.
    pub name: &'static str,
    /// Minimal allowed targeting radius (meters).
    pub min_radius_m: f64,
    /// Maximal allowed targeting radius (meters).
    pub max_radius_m: f64,
}

impl RadiusLimits {
    /// Returns `true` if `radius_m` is allowed on this platform.
    pub fn allows(&self, radius_m: f64) -> bool {
        (self.min_radius_m..=self.max_radius_m).contains(&radius_m)
    }
}

/// Google Ads: 5 km – 65 km.
pub(crate) const GOOGLE: RadiusLimits =
    RadiusLimits { name: "Google", min_radius_m: 5_000.0, max_radius_m: 65_000.0 };

/// Microsoft Advertising: 1 km – 800 km (also quoted as 1–800 miles; the
/// paper lists both, we take the metric row).
const MICROSOFT: RadiusLimits =
    RadiusLimits { name: "Microsoft", min_radius_m: 1_000.0, max_radius_m: 800_000.0 };

/// Facebook (Meta): 1 mile – 50 miles.
const FACEBOOK: RadiusLimits =
    RadiusLimits { name: "Facebook", min_radius_m: MILE_M, max_radius_m: 50.0 * MILE_M };

/// Tencent: 500 m – 25 km.
pub const TENCENT: RadiusLimits =
    RadiusLimits { name: "Tencent", min_radius_m: 500.0, max_radius_m: 25_000.0 };

/// All surveyed platforms, in Table I order.
pub const ALL: [RadiusLimits; 4] = [GOOGLE, MICROSOFT, FACEBOOK, TENCENT];

/// The common radius interval supported by every surveyed platform,
/// `(max of minima, min of maxima)` = (5 km, 25 km). The paper's
/// evaluation targeting radius `R = 5 km` is its minimum.
pub fn common_interval() -> (f64, f64) {
    let lo = ALL.iter().map(|p| p.min_radius_m).fold(f64::MIN, f64::max);
    let hi = ALL.iter().map(|p| p.max_radius_m).fold(f64::MAX, f64::min);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's evaluation targeting radius `R = 5 km`: "the minimal
    /// value of the common interval from 5 km to 25 km".
    const EVALUATION_TARGETING_RADIUS_M: f64 = 5_000.0;

    #[test]
    fn table_one_values() {
        assert_eq!(GOOGLE.min_radius_m, 5_000.0);
        assert_eq!(GOOGLE.max_radius_m, 65_000.0);
        assert_eq!(MICROSOFT.min_radius_m, 1_000.0);
        assert_eq!(MICROSOFT.max_radius_m, 800_000.0);
        assert!((FACEBOOK.min_radius_m - 1_609.344).abs() < 1e-9);
        assert!((FACEBOOK.max_radius_m - 80_467.2).abs() < 1e-6);
        assert_eq!(TENCENT.min_radius_m, 500.0);
        assert_eq!(TENCENT.max_radius_m, 25_000.0);
    }

    #[test]
    fn common_interval_is_5_to_25_km() {
        let (lo, hi) = common_interval();
        assert_eq!(lo, 5_000.0);
        assert_eq!(hi, 25_000.0);
        assert_eq!(EVALUATION_TARGETING_RADIUS_M, lo);
    }

    #[test]
    fn allows_is_inclusive() {
        assert!(TENCENT.allows(500.0));
        assert!(TENCENT.allows(25_000.0));
        assert!(!TENCENT.allows(499.9));
        assert!(!TENCENT.allows(25_000.1));
    }

    #[test]
    fn evaluation_radius_allowed_everywhere() {
        for p in ALL {
            assert!(p.allows(EVALUATION_TARGETING_RADIUS_M), "{}", p.name);
        }
    }
}
