//! Constants describing the paper's study area.

use privlocad_geo::{BoundingBox, GeoPoint, LocalProjection};

/// The Shanghai study bounding box of Section VII-A:
/// latitude ∈ [30.7, 31.4], longitude ∈ [121, 122].
pub fn bounding_box() -> BoundingBox {
    BoundingBox::new(30.7, 31.4, 121.0, 122.0).expect("constants are valid")
}

/// The default local projection anchored at the study-area center.
pub fn projection() -> LocalProjection {
    LocalProjection::new(center())
}

/// The center of the study area.
pub fn center() -> GeoPoint {
    bounding_box().center()
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_geo::Point;

    #[test]
    fn box_matches_paper() {
        assert_eq!(bounding_box(), BoundingBox::new(30.7, 31.4, 121.0, 122.0).unwrap());
    }

    #[test]
    fn projection_is_centered() {
        let p = projection();
        assert!(p.to_local(center()).distance(Point::ORIGIN) < 1e-9);
    }

    #[test]
    fn study_area_is_metropolitan_scale() {
        let p = projection();
        let sw = p.to_local(GeoPoint::new(30.7, 121.0).unwrap());
        let ne = p.to_local(GeoPoint::new(31.4, 122.0).unwrap());
        let diag_km = sw.distance(ne) / 1_000.0;
        assert!((120.0..130.0).contains(&diag_km), "diagonal {diag_km} km");
    }
}
