use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{GeoError, GeoPoint};

/// An axis-aligned latitude/longitude rectangle.
///
/// The paper's dataset covers Shanghai with latitude `∈ [30.7, 31.4]` and
/// longitude `∈ [121, 122]`; the synthetic generator places users uniformly
/// (or around hotspots) inside such a box.
///
/// # Examples
///
/// ```
/// use privlocad_geo::{BoundingBox, GeoPoint};
///
/// let bb = BoundingBox::new(30.7, 31.4, 121.0, 122.0)?;
/// assert!(bb.contains(GeoPoint::new(31.0, 121.5)?));
/// assert!(!bb.contains(GeoPoint::new(29.0, 121.5)?));
/// # Ok::<(), privlocad_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    min_lat: f64,
    max_lat: f64,
    min_lon: f64,
    max_lon: f64,
}

impl BoundingBox {
    /// Creates a bounding box from corner coordinates.
    ///
    /// # Errors
    ///
    /// Returns a [`GeoError`] if a coordinate is out of range or a minimum
    /// exceeds its maximum.
    pub fn new(min_lat: f64, max_lat: f64, min_lon: f64, max_lon: f64) -> Result<Self, GeoError> {
        // Validate ranges by constructing the corners.
        GeoPoint::new(min_lat, min_lon)?;
        GeoPoint::new(max_lat, max_lon)?;
        if min_lat > max_lat || min_lon > max_lon {
            return Err(GeoError::EmptyBoundingBox);
        }
        Ok(BoundingBox { min_lat, max_lat, min_lon, max_lon })
    }

    /// The box's center point.
    pub fn center(&self) -> GeoPoint {
        GeoPoint::new((self.min_lat + self.max_lat) / 2.0, (self.min_lon + self.max_lon) / 2.0)
            // lint:allow(panic-hygiene): provably infallible — the midpoint of an in-range coordinate pair stays in range
            .expect("center of a valid box is valid")
    }

    /// Returns `true` if `p` lies inside the box (inclusive).
    pub fn contains(&self, p: GeoPoint) -> bool {
        (self.min_lat..=self.max_lat).contains(&p.lat())
            && (self.min_lon..=self.max_lon).contains(&p.lon())
    }

    /// Draws a point uniformly at random (in coordinate space) from the box.
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> GeoPoint {
        let lat = rng.gen_range(self.min_lat..=self.max_lat);
        let lon = rng.gen_range(self.min_lon..=self.max_lon);
        // lint:allow(panic-hygiene): provably infallible — gen_range keeps both coordinates inside the validated box
        GeoPoint::new(lat, lon).expect("sample inside a valid box is valid")
    }

    /// Shrinks the box by `margin_deg` degrees on every side.
    ///
    /// Useful to keep synthetic top locations away from the dataset border so
    /// that obfuscation noise does not push check-ins outside the study area.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::EmptyBoundingBox`] if the margin consumes the box.
    pub fn shrink(&self, margin_deg: f64) -> Result<BoundingBox, GeoError> {
        BoundingBox::new(
            self.min_lat + margin_deg,
            self.max_lat - margin_deg,
            self.min_lon + margin_deg,
            self.max_lon - margin_deg,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shanghai() -> BoundingBox {
        BoundingBox::new(30.7, 31.4, 121.0, 122.0).unwrap()
    }

    #[test]
    fn rejects_inverted_bounds() {
        assert!(matches!(
            BoundingBox::new(31.4, 30.7, 121.0, 122.0),
            Err(GeoError::EmptyBoundingBox)
        ));
        assert!(matches!(
            BoundingBox::new(30.7, 31.4, 122.0, 121.0),
            Err(GeoError::EmptyBoundingBox)
        ));
    }

    #[test]
    fn rejects_out_of_range_coordinates() {
        assert!(BoundingBox::new(-91.0, 0.0, 0.0, 1.0).is_err());
        assert!(BoundingBox::new(0.0, 1.0, 0.0, 181.0).is_err());
    }

    #[test]
    fn center_is_inside() {
        let bb = shanghai();
        assert!(bb.contains(bb.center()));
        assert!((bb.center().lat() - 31.05).abs() < 1e-12);
        assert!((bb.center().lon() - 121.5).abs() < 1e-12);
    }

    #[test]
    fn contains_is_inclusive_at_edges() {
        let bb = shanghai();
        assert!(bb.contains(GeoPoint::new(30.7, 121.0).unwrap()));
        assert!(bb.contains(GeoPoint::new(31.4, 122.0).unwrap()));
    }

    #[test]
    fn samples_stay_inside() {
        let bb = shanghai();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            assert!(bb.contains(bb.sample_uniform(&mut rng)));
        }
    }

    #[test]
    fn shrink_reduces_extent() {
        let bb = shanghai().shrink(0.1).unwrap();
        assert!((bb.min_lat - 30.8).abs() < 1e-12);
        assert!((bb.max_lat - 31.3).abs() < 1e-12);
        assert!(shanghai().shrink(0.5).is_err()); // 30.7+0.5 > 31.4-0.5
    }

    #[test]
    fn degenerate_point_box_is_allowed() {
        let bb = BoundingBox::new(31.0, 31.0, 121.5, 121.5).unwrap();
        assert!(bb.contains(GeoPoint::new(31.0, 121.5).unwrap()));
        let mut rng = StdRng::seed_from_u64(1);
        let p = bb.sample_uniform(&mut rng);
        assert_eq!(p.lat(), 31.0);
        assert_eq!(p.lon(), 121.5);
    }
}
