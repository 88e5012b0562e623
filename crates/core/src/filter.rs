use privlocad_adnet::Campaign;
use privlocad_geo::{Circle, Point};

/// Filters ads returned for an obfuscated request down to those relevant
/// to the user's *true* area of interest.
///
/// Because the AOR is shifted away from the user, the ad network returns
/// campaigns the user does not care about; the trusted edge drops them
/// before forwarding to the device, which "can reduce the bandwidth
/// overhead" (Section V-A). Campaigns without a geographic business
/// location (area/country targeting) are kept — they are location-relevant
/// by construction of their coarser targeting.
///
/// Takes any iterator of campaign references — e.g. the borrowed matches
/// straight out of `AdNetwork::matching`, without first cloning them into
/// an owned `Vec<Campaign>`.
///
/// # Panics
///
/// Panics if `targeting_radius_m` is not positive and finite.
///
/// # Examples
///
/// ```
/// use privlocad::filter_ads_by;
/// use privlocad_adnet::{Campaign, Targeting};
/// use privlocad_geo::Point;
///
/// let near = Campaign::new(0, "near", Targeting::radius(Point::new(1_000.0, 0.0), 5_000.0)?, 1.0)?;
/// let far = Campaign::new(1, "far", Targeting::radius(Point::new(30_000.0, 0.0), 5_000.0)?, 1.0)?;
/// let ads = [near, far];
/// let kept = filter_ads_by(&ads, Point::ORIGIN, 5_000.0);
/// assert_eq!(kept.len(), 1);
/// assert_eq!(kept[0].name(), "near");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn filter_ads_by<'a>(
    ads: impl IntoIterator<Item = &'a Campaign>,
    true_location: Point,
    targeting_radius_m: f64,
) -> Vec<&'a Campaign> {
    let aoi = Circle::new(true_location, targeting_radius_m)
        // lint:allow(panic-hygiene): documented precondition — see the # Panics section above
        .expect("targeting radius must be positive and finite");
    ads.into_iter()
        .filter(|ad| match ad.business_location() {
            Some(loc) => aoi.contains(loc),
            None => true,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_adnet::Targeting;

    fn radius_ad(id: u64, x: f64) -> Campaign {
        Campaign::new(
            id,
            format!("ad{id}"),
            Targeting::radius(Point::new(x, 0.0), 5_000.0).unwrap(),
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn keeps_only_aoi_ads() {
        let ads = vec![radius_ad(0, 1_000.0), radius_ad(1, 4_999.0), radius_ad(2, 5_001.0)];
        let kept = filter_ads_by(&ads, Point::ORIGIN, 5_000.0);
        let ids: Vec<u64> = kept.iter().map(|a| a.id().raw()).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn non_geographic_ads_pass_through() {
        let ads = vec![
            Campaign::new(0u64, "country", Targeting::Country(86), 1.0).unwrap(),
            radius_ad(1, 99_000.0),
        ];
        let kept = filter_ads_by(&ads, Point::ORIGIN, 5_000.0);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].name(), "country");
    }

    #[test]
    fn empty_input() {
        assert!(filter_ads_by(std::iter::empty(), Point::ORIGIN, 5_000.0).is_empty());
    }

    #[test]
    fn by_iterator_matches_slice_variant() {
        let ads = [radius_ad(0, 1_000.0), radius_ad(1, 99_000.0), radius_ad(2, 3_000.0)];
        let prefiltered: Vec<&Campaign> = ads.iter().filter(|a| a.id().raw() != 2).collect();
        let kept = filter_ads_by(prefiltered, Point::ORIGIN, 5_000.0);
        let ids: Vec<u64> = kept.iter().map(|a| a.id().raw()).collect();
        assert_eq!(ids, vec![0]);
    }

    #[test]
    #[should_panic(expected = "targeting radius")]
    fn rejects_bad_radius() {
        let _ = filter_ads_by(std::iter::empty(), Point::ORIGIN, 0.0);
    }
}
