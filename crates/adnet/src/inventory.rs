//! Synthetic campaign inventory for the evaluation.
//!
//! The paper's experiments need an ad marketplace around every user; this
//! generator scatters radius-targeted campaigns over the study area with
//! platform-conformant radii and log-normally distributed CPM bids.

use privlocad_geo::rng::{normal, seeded};
use privlocad_geo::{BoundingBox, LocalProjection, Point};
use rand::Rng;

use crate::platforms::RadiusLimits;
use crate::{Campaign, Targeting};

/// Configuration for [`generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InventoryConfig {
    /// Number of campaigns.
    pub count: usize,
    /// Platform whose radius limits constrain the campaigns.
    pub platform: RadiusLimits,
    /// Cap applied on top of the platform maximum (the evaluation keeps
    /// radii in the cross-platform common interval; `f64::INFINITY`
    /// disables the cap).
    pub max_radius_m: f64,
    /// Log-normal parameters of the CPM bids.
    pub bid_log_mean: f64,
    /// Log-normal σ of the CPM bids.
    pub bid_log_sigma: f64,
}

impl Default for InventoryConfig {
    fn default() -> Self {
        InventoryConfig {
            count: 1_000,
            platform: crate::platforms::TENCENT,
            max_radius_m: 25_000.0,
            bid_log_mean: 1.0,
            bid_log_sigma: 0.5,
        }
    }
}

/// Generates a deterministic synthetic inventory inside `bbox`, projected
/// through `proj`.
///
/// # Panics
///
/// Panics if the configured radius range is empty after applying the cap.
///
/// # Examples
///
/// ```
/// use privlocad_adnet::inventory::{generate, InventoryConfig};
/// use privlocad_mobility::shanghai;
///
/// let ads = generate(&InventoryConfig::default(), shanghai::bounding_box(), &shanghai::projection(), 7);
/// assert_eq!(ads.len(), 1_000);
/// ```
pub fn generate(
    config: &InventoryConfig,
    bbox: BoundingBox,
    proj: &LocalProjection,
    seed: u64,
) -> Vec<Campaign> {
    let lo = config.platform.min_radius_m;
    let hi = config.platform.max_radius_m.min(config.max_radius_m);
    assert!(lo <= hi, "empty radius range [{lo}, {hi}]");
    let mut rng = seeded(seed);
    (0..config.count)
        .map(|i| {
            let center: Point = proj.to_local(bbox.sample_uniform(&mut rng));
            let radius = rng.gen_range(lo..=hi);
            let bid = normal(&mut rng, config.bid_log_mean, config.bid_log_sigma).exp();
            Campaign::new(
                i as u64,
                format!("campaign-{i}"),
                Targeting::radius(center, radius).expect("generated radius is valid"),
                bid,
            )
            .expect("generated bid is positive")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms;

    fn shanghai_box() -> BoundingBox {
        BoundingBox::new(30.7, 31.4, 121.0, 122.0).unwrap()
    }

    fn proj() -> LocalProjection {
        LocalProjection::new(shanghai_box().center())
    }

    #[test]
    fn generates_requested_count_deterministically() {
        let cfg = InventoryConfig { count: 50, ..InventoryConfig::default() };
        let a = generate(&cfg, shanghai_box(), &proj(), 3);
        let b = generate(&cfg, shanghai_box(), &proj(), 3);
        assert_eq!(a.len(), 50);
        assert_eq!(a, b);
    }

    #[test]
    fn radii_respect_platform_limits_and_cap() {
        let cfg = InventoryConfig {
            count: 200,
            platform: platforms::TENCENT,
            max_radius_m: 10_000.0,
            ..InventoryConfig::default()
        };
        for c in generate(&cfg, shanghai_box(), &proj(), 1) {
            match c.targeting() {
                Targeting::Radius { radius_m, .. } => {
                    assert!((500.0..=10_000.0).contains(&radius_m), "radius {radius_m}");
                }
                _ => panic!("inventory generates radius campaigns only"),
            }
        }
    }

    #[test]
    fn bids_positive_and_varied() {
        let cfg = InventoryConfig { count: 100, ..InventoryConfig::default() };
        let bids: Vec<f64> =
            generate(&cfg, shanghai_box(), &proj(), 2).iter().map(|c| c.bid_cpm()).collect();
        assert!(bids.iter().all(|&b| b > 0.0));
        let distinct = {
            let mut b = bids.clone();
            b.sort_by(|a, c| a.partial_cmp(c).unwrap());
            b.dedup();
            b.len()
        };
        assert!(distinct > 90);
    }

    #[test]
    fn centers_inside_study_area() {
        let cfg = InventoryConfig { count: 100, ..InventoryConfig::default() };
        let p = proj();
        for c in generate(&cfg, shanghai_box(), &p, 4) {
            let g = p.to_geo(c.business_location().unwrap()).unwrap();
            assert!(shanghai_box().contains(g));
        }
    }

    #[test]
    fn seeds_differ() {
        let cfg = InventoryConfig { count: 10, ..InventoryConfig::default() };
        assert_ne!(
            generate(&cfg, shanghai_box(), &proj(), 1),
            generate(&cfg, shanghai_box(), &proj(), 2)
        );
    }

    #[test]
    #[should_panic(expected = "empty radius range")]
    fn rejects_empty_radius_range() {
        let cfg = InventoryConfig {
            platform: platforms::GOOGLE, // min 5 km
            max_radius_m: 1_000.0,       // cap below the platform minimum
            ..InventoryConfig::default()
        };
        let _ = generate(&cfg, shanghai_box(), &proj(), 0);
    }
}
