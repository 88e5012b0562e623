use std::f64::consts::PI;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{GeoError, Point};

/// A disc in the local plane: center plus radius in meters.
///
/// Circles model both the paper's *area of interest* (AOI, the disc of
/// targeting radius `R` around the user's true location) and the *area of
/// request* (AOR, the same disc shifted to an obfuscated location). The exact
/// intersection area ([`Circle::intersection_area`]) is the analytic form of
/// the utilization-rate metric for `n = 1`.
///
/// # Examples
///
/// ```
/// use privlocad_geo::{Circle, Point};
///
/// let aoi = Circle::new(Point::ORIGIN, 5_000.0)?;
/// let aor = Circle::new(Point::new(5_000.0, 0.0), 5_000.0)?;
/// let ur = aoi.intersection_area(&aor) / aoi.area();
/// assert!((ur - 0.391).abs() < 0.001); // classic two-circle lens
/// # Ok::<(), privlocad_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Circle {
    center: Point,
    radius: f64,
}

impl Circle {
    /// Creates a circle with the given center and radius (meters).
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLength`] if the radius is not positive and
    /// finite, or [`GeoError::NonFiniteCoordinate`] if the center is not
    /// finite.
    pub fn new(center: Point, radius: f64) -> Result<Self, GeoError> {
        if !radius.is_finite() || radius <= 0.0 {
            return Err(GeoError::InvalidLength(radius));
        }
        if !center.is_finite() {
            return Err(GeoError::NonFiniteCoordinate(center.x));
        }
        Ok(Circle { center, radius })
    }

    /// The circle's center.
    #[inline]
    pub fn center(&self) -> Point {
        self.center
    }

    /// The circle's radius in meters.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The disc area `πr²` in m².
    #[inline]
    pub fn area(&self) -> f64 {
        PI * self.radius * self.radius
    }

    /// Returns `true` if `p` lies inside or on the circle.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius
    }

    /// Exact area of the intersection of two discs (the "lens"), in m².
    ///
    /// Handles the disjoint and fully-contained cases. This gives the
    /// closed-form utilization rate for a single obfuscated output:
    /// `UR = |AOI ∩ AOR| / |AOI|`.
    pub fn intersection_area(&self, other: &Circle) -> f64 {
        let d = self.center.distance(other.center);
        let (r1, r2) = (self.radius, other.radius);
        if d >= r1 + r2 {
            return 0.0;
        }
        if d <= (r1 - r2).abs() {
            let rmin = r1.min(r2);
            return PI * rmin * rmin;
        }
        // Standard circular-segment decomposition.
        let a1 = ((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1)).clamp(-1.0, 1.0);
        let a2 = ((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2)).clamp(-1.0, 1.0);
        let t1 = 2.0 * a1.acos();
        let t2 = 2.0 * a2.acos();
        0.5 * r1 * r1 * (t1 - t1.sin()) + 0.5 * r2 * r2 * (t2 - t2.sin())
    }

    /// Draws a point uniformly at random from the disc.
    ///
    /// Uses the standard `r = R√u` inverse-CDF transform so the density is
    /// uniform over area, not over radius. This sampler backs the
    /// naïve post-processing baseline and the efficacy metric's "random ads
    /// in AOR" workload.
    ///
    /// ```
    /// use privlocad_geo::{Circle, Point};
    /// use rand::SeedableRng;
    ///
    /// let c = Circle::new(Point::new(10.0, 10.0), 100.0)?;
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    /// for _ in 0..100 {
    ///     assert!(c.contains(c.sample_uniform(&mut rng)));
    /// }
    /// # Ok::<(), privlocad_geo::GeoError>(())
    /// ```
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        let theta = rng.gen::<f64>() * 2.0 * PI;
        let r = self.radius * rng.gen::<f64>().sqrt();
        self.center.offset_polar(r, theta)
    }

    /// Returns a circle with the same radius centered at `center`.
    ///
    /// This is exactly the AOI → AOR shift of Definition 4: the disc of
    /// targeting radius `R` is re-centered on the obfuscated location.
    #[inline]
    pub fn recenter(&self, center: Point) -> Circle {
        Circle { center, radius: self.radius }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn c(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r).unwrap()
    }

    #[test]
    fn rejects_bad_radius() {
        assert!(Circle::new(Point::ORIGIN, 0.0).is_err());
        assert!(Circle::new(Point::ORIGIN, -5.0).is_err());
        assert!(Circle::new(Point::ORIGIN, f64::NAN).is_err());
        assert!(Circle::new(Point::new(f64::NAN, 0.0), 1.0).is_err());
    }

    #[test]
    fn identical_circles_intersect_fully() {
        let a = c(3.0, 4.0, 100.0);
        assert!((a.intersection_area(&a) - a.area()).abs() < 1e-6);
    }

    #[test]
    fn disjoint_circles_have_zero_intersection() {
        let a = c(0.0, 0.0, 10.0);
        let b = c(25.0, 0.0, 10.0);
        assert_eq!(a.intersection_area(&b), 0.0);
    }

    #[test]
    fn tangent_circles_have_zero_intersection() {
        let a = c(0.0, 0.0, 10.0);
        let b = c(20.0, 0.0, 10.0);
        assert_eq!(a.intersection_area(&b), 0.0);
    }

    #[test]
    fn contained_circle_intersection_is_smaller_area() {
        let big = c(0.0, 0.0, 100.0);
        let small = c(10.0, 0.0, 5.0);
        assert!((big.intersection_area(&small) - small.area()).abs() < 1e-9);
        // symmetric
        assert!((small.intersection_area(&big) - small.area()).abs() < 1e-9);
    }

    #[test]
    fn half_offset_lens_matches_known_value() {
        // Two unit circles at distance 1: area = 2π/3 − √3/2 ≈ 1.2284.
        let a = c(0.0, 0.0, 1.0);
        let b = c(1.0, 0.0, 1.0);
        let expected = 2.0 * PI / 3.0 - 3.0_f64.sqrt() / 2.0;
        assert!((a.intersection_area(&b) - expected).abs() < 1e-12);
    }

    #[test]
    fn intersection_is_symmetric_for_unequal_radii() {
        let a = c(0.0, 0.0, 30.0);
        let b = c(40.0, 10.0, 20.0);
        assert!((a.intersection_area(&b) - b.intersection_area(&a)).abs() < 1e-9);
    }

    #[test]
    fn intersection_monotone_in_distance() {
        let a = c(0.0, 0.0, 50.0);
        let mut prev = f64::INFINITY;
        for d in [0.0, 10.0, 20.0, 40.0, 60.0, 80.0, 99.0, 101.0] {
            let area = a.intersection_area(&c(d, 0.0, 50.0));
            assert!(area <= prev + 1e-9, "not monotone at d={d}");
            prev = area;
        }
    }

    #[test]
    fn uniform_samples_land_inside_and_cover_quadrants() {
        let circle = c(100.0, -50.0, 30.0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut quad = [0u32; 4];
        for _ in 0..4000 {
            let p = circle.sample_uniform(&mut rng);
            assert!(circle.contains(p));
            let dx = p.x - 100.0;
            let dy = p.y + 50.0;
            let q = match (dx >= 0.0, dy >= 0.0) {
                (true, true) => 0,
                (false, true) => 1,
                (false, false) => 2,
                (true, false) => 3,
            };
            quad[q] += 1;
        }
        for q in quad {
            assert!(q > 800, "quadrant counts skewed: {quad:?}");
        }
    }

    #[test]
    fn uniform_samples_are_area_uniform_not_radius_uniform() {
        // Under area-uniform sampling P(r <= R/2) = 1/4.
        let circle = c(0.0, 0.0, 100.0);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let inner = (0..n)
            .filter(|_| circle.sample_uniform(&mut rng).distance(Point::ORIGIN) <= 50.0)
            .count() as f64;
        let frac = inner / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn recenter_keeps_radius() {
        let a = c(0.0, 0.0, 12.0);
        let b = a.recenter(Point::new(9.0, 9.0));
        assert_eq!(b.radius(), 12.0);
        assert_eq!(b.center(), Point::new(9.0, 9.0));
    }
}
