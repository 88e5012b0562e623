#[cfg(test)]
use crate::GeoPoint;

/// Mean Earth radius in meters (IUGG mean radius R₁).
pub(crate) const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Great-circle distance between two WGS-84 points, in meters, by the
/// haversine formula: the oracle the planar
/// [`LocalProjection`](crate::LocalProjection) is validated against.
/// Everything inside the mechanisms uses planar
/// [`Point::distance`](crate::Point::distance) instead, which is what the
/// paper's formulas assume.
#[cfg(test)]
pub(crate) fn haversine_m(a: GeoPoint, b: GeoPoint) -> f64 {
    let (lat1, lon1) = (a.lat().to_radians(), a.lon().to_radians());
    let (lat2, lon2) = (b.lat().to_radians(), b.lon().to_radians());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_M * h.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gp(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn zero_distance_for_identical_points() {
        let p = gp(31.2, 121.5);
        assert_eq!(haversine_m(p, p), 0.0);
    }

    #[test]
    fn one_degree_of_latitude_is_about_111_km() {
        let d = haversine_m(gp(31.0, 121.0), gp(32.0, 121.0));
        assert!((d - 111_195.0).abs() < 100.0, "got {d}");
    }

    #[test]
    fn symmetric() {
        let a = gp(30.7, 121.0);
        let b = gp(31.4, 122.0);
        assert!((haversine_m(a, b) - haversine_m(b, a)).abs() < 1e-9);
    }

    #[test]
    fn triangle_inequality_on_sample_points() {
        let a = gp(30.8, 121.1);
        let b = gp(31.1, 121.6);
        let c = gp(31.3, 121.9);
        assert!(haversine_m(a, c) <= haversine_m(a, b) + haversine_m(b, c) + 1e-9);
    }
}
