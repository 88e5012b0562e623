use serde::{Deserialize, Serialize};

use crate::distance::EARTH_RADIUS_M;
use crate::{GeoError, GeoPoint, Point};

/// An equirectangular projection between WGS-84 and a local tangent plane.
///
/// The projection is anchored at an `origin`; east–west distances are scaled
/// by `cos(origin latitude)`. Over a metropolitan area tens of kilometers
/// across (the paper's Shanghai bounding box spans ~78 km north–south) the
/// distortion relative to the true great-circle distance is far below the
/// 50 m clustering threshold and the 200 m attack-success threshold, so
/// planar Euclidean geometry is faithful to the paper's setting.
///
/// # Examples
///
/// ```
/// use privlocad_geo::{GeoPoint, LocalProjection};
///
/// let proj = LocalProjection::new(GeoPoint::new(31.05, 121.5)?);
/// let g = GeoPoint::new(31.2, 121.8)?;
/// let back = proj.to_geo(proj.to_local(g))?;
/// assert!((back.lat() - g.lat()).abs() < 1e-9);
/// assert!((back.lon() - g.lon()).abs() < 1e-9);
/// # Ok::<(), privlocad_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalProjection {
    origin: GeoPoint,
    cos_lat0: f64,
}

impl LocalProjection {
    /// Creates a projection anchored at `origin`.
    pub fn new(origin: GeoPoint) -> Self {
        LocalProjection { origin, cos_lat0: origin.lat().to_radians().cos() }
    }

    /// The anchor point mapped to the planar origin.
    #[inline]
    pub fn origin(&self) -> GeoPoint {
        self.origin
    }

    /// Projects a WGS-84 point to local planar meters.
    #[inline]
    pub fn to_local(&self, g: GeoPoint) -> Point {
        let dlat = (g.lat() - self.origin.lat()).to_radians();
        let dlon = (g.lon() - self.origin.lon()).to_radians();
        Point::new(EARTH_RADIUS_M * dlon * self.cos_lat0, EARTH_RADIUS_M * dlat)
    }

    /// Inverse projection from local planar meters back to WGS-84.
    ///
    /// # Errors
    ///
    /// Returns an error if the point maps outside the valid WGS-84
    /// coordinate ranges (e.g. a planar point light-years away).
    pub fn to_geo(&self, p: Point) -> Result<GeoPoint, GeoError> {
        let lat = self.origin.lat() + (p.y / EARTH_RADIUS_M).to_degrees();
        let lon = self.origin.lon() + (p.x / (EARTH_RADIUS_M * self.cos_lat0)).to_degrees();
        GeoPoint::new(lat, lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::haversine_m;

    fn proj() -> LocalProjection {
        LocalProjection::new(GeoPoint::new(31.05, 121.5).unwrap())
    }

    #[test]
    fn origin_maps_to_planar_origin() {
        let p = proj();
        let o = p.to_local(p.origin());
        assert!(o.distance(Point::ORIGIN) < 1e-9);
    }

    #[test]
    fn round_trip_is_exact_to_nanodegrees() {
        let p = proj();
        for (lat, lon) in [(30.7, 121.0), (31.4, 122.0), (31.0, 121.5), (30.95, 121.87)] {
            let g = GeoPoint::new(lat, lon).unwrap();
            let back = p.to_geo(p.to_local(g)).unwrap();
            assert!((back.lat() - lat).abs() < 1e-9);
            assert!((back.lon() - lon).abs() < 1e-9);
        }
    }

    #[test]
    fn planar_distance_close_to_haversine_within_city_scale() {
        let p = proj();
        let a = GeoPoint::new(31.0, 121.3).unwrap();
        let b = GeoPoint::new(31.2, 121.7).unwrap();
        let planar = p.to_local(a).distance(p.to_local(b));
        let sphere = haversine_m(a, b);
        // < 0.1% distortion over ~44 km
        assert!((planar - sphere).abs() / sphere < 1e-3, "planar {planar} vs haversine {sphere}");
    }

    #[test]
    fn north_is_positive_y_east_is_positive_x() {
        let p = proj();
        let north = p.to_local(GeoPoint::new(31.06, 121.5).unwrap());
        assert!(north.y > 0.0 && north.x.abs() < 1e-6);
        let east = p.to_local(GeoPoint::new(31.05, 121.51).unwrap());
        assert!(east.x > 0.0 && east.y.abs() < 1e-6);
    }

    #[test]
    fn to_geo_rejects_absurd_points() {
        let p = proj();
        assert!(p.to_geo(Point::new(0.0, 1e10)).is_err());
    }
}
