use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::GeoError;

/// A position in a local tangent plane, in meters.
///
/// `x` grows eastward, `y` grows northward. Points are produced from WGS-84
/// coordinates by [`LocalProjection`](crate::LocalProjection); all privacy
/// mechanisms and the de-obfuscation attack operate on this type because the
/// paper's formulas (planar Laplace, n-fold Gaussian, Euclidean clustering)
/// are stated in planar meters.
///
/// # Examples
///
/// ```
/// use privlocad_geo::Point;
///
/// let home = Point::new(0.0, 0.0);
/// let office = Point::new(3000.0, 4000.0);
/// assert_eq!(home.distance(office), 5000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Eastward offset from the projection origin, in meters.
    pub x: f64,
    /// Northward offset from the projection origin, in meters.
    pub y: f64,
}

impl Point {
    /// The origin of the local plane.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point at `(x, y)` meters.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, in meters.
    ///
    /// ```
    /// use privlocad_geo::Point;
    /// assert_eq!(Point::new(0.0, 0.0).distance(Point::new(0.0, 2.5)), 2.5);
    /// ```
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`, in m².
    ///
    /// Cheaper than [`Point::distance`]; preferred inside hot loops such as
    /// the clustering inner loop where only comparisons are needed.
    #[inline]
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Translates the point by a polar offset `(radius, angle)`.
    ///
    /// This is the geometric core of Algorithm 3 in the paper: an obfuscated
    /// location is `real + (r cos θ, r sin θ)`.
    ///
    /// ```
    /// use privlocad_geo::Point;
    /// let p = Point::ORIGIN.offset_polar(100.0, std::f64::consts::FRAC_PI_2);
    /// assert!(p.x.abs() < 1e-9);
    /// assert!((p.y - 100.0).abs() < 1e-9);
    /// ```
    #[inline]
    pub fn offset_polar(self, radius: f64, angle: f64) -> Point {
        Point::new(self.x + radius * angle.cos(), self.y + radius * angle.sin())
    }

    /// Returns `true` if both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2} m, {:.2} m)", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Point) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Point) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl Sum for Point {
    fn sum<I: Iterator<Item = Point>>(iter: I) -> Point {
        iter.fold(Point::ORIGIN, Add::add)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    #[inline]
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

/// Computes the centroid (arithmetic mean) of a set of points.
///
/// The centroid is the sufficient statistic of the n-fold Gaussian mechanism
/// (Section VI of the paper) and the cluster representative of the
/// de-obfuscation attack (Algorithm 1).
///
/// Returns `None` for an empty slice.
///
/// # Examples
///
/// ```
/// use privlocad_geo::{centroid, Point};
///
/// let pts = [Point::new(0.0, 0.0), Point::new(2.0, 4.0)];
/// assert_eq!(centroid(&pts), Some(Point::new(1.0, 2.0)));
/// assert_eq!(centroid(&[]), None);
/// ```
pub fn centroid(points: &[Point]) -> Option<Point> {
    if points.is_empty() {
        return None;
    }
    let sum: Point = points.iter().copied().sum();
    Some(sum / points.len() as f64)
}

/// A WGS-84 position in degrees.
///
/// The synthetic dataset and the advertising substrate express locations in
/// latitude/longitude; convert to planar [`Point`]s with
/// [`LocalProjection`](crate::LocalProjection) before running any mechanism.
///
/// # Examples
///
/// ```
/// use privlocad_geo::GeoPoint;
///
/// let sh = GeoPoint::new(31.23, 121.47)?; // central Shanghai
/// assert!(GeoPoint::new(95.0, 0.0).is_err());
/// # Ok::<(), privlocad_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    lat: f64,
    lon: f64,
}

impl GeoPoint {
    /// Creates a WGS-84 point after validating the coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLatitude`] if `lat ∉ [-90, 90]` or is not
    /// finite, and [`GeoError::InvalidLongitude`] if `lon ∉ [-180, 180]` or
    /// is not finite.
    pub fn new(lat: f64, lon: f64) -> Result<Self, GeoError> {
        if !lat.is_finite() || !(-90.0..=90.0).contains(&lat) {
            return Err(GeoError::InvalidLatitude(lat));
        }
        if !lon.is_finite() || !(-180.0..=180.0).contains(&lon) {
            return Err(GeoError::InvalidLongitude(lon));
        }
        Ok(GeoPoint { lat, lon })
    }

    /// Latitude in degrees, in `[-90, 90]`.
    #[inline]
    pub fn lat(self) -> f64 {
        self.lat
    }

    /// Longitude in degrees, in `[-180, 180]`.
    #[inline]
    pub fn lon(self) -> f64 {
        self.lon
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}°, {:.6}°)", self.lat, self.lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-3.5, 10.0);
        let b = Point::new(7.25, -2.0);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn arithmetic_ops() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(a / 2.0, Point::new(0.5, 1.0));
        assert_eq!(-a, Point::new(-1.0, -2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, Point::new(4.0, 1.0));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn sum_of_points() {
        let pts = [Point::new(1.0, 0.0), Point::new(2.0, 5.0), Point::new(-1.0, 1.0)];
        let s: Point = pts.iter().copied().sum();
        assert_eq!(s, Point::new(2.0, 6.0));
    }

    #[test]
    fn centroid_of_symmetric_square_is_center() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ];
        assert_eq!(centroid(&pts), Some(Point::new(1.0, 1.0)));
    }

    #[test]
    fn centroid_empty_is_none() {
        assert_eq!(centroid(&[]), None);
    }

    #[test]
    fn offset_polar_round_trip() {
        let p = Point::new(10.0, -4.0);
        let q = p.offset_polar(250.0, 1.1);
        assert!((p.distance(q) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn geopoint_validation() {
        assert!(GeoPoint::new(31.0, 121.5).is_ok());
        assert!(matches!(GeoPoint::new(90.1, 0.0), Err(GeoError::InvalidLatitude(_))));
        assert!(matches!(GeoPoint::new(0.0, -180.5), Err(GeoError::InvalidLongitude(_))));
        assert!(matches!(GeoPoint::new(f64::NAN, 0.0), Err(GeoError::InvalidLatitude(_))));
        assert!(matches!(GeoPoint::new(0.0, f64::INFINITY), Err(GeoError::InvalidLongitude(_))));
    }

    #[test]
    fn conversions_with_tuples() {
        let p: Point = (3.0, 4.0).into();
        assert_eq!(p, Point::new(3.0, 4.0));
        let t: (f64, f64) = p.into();
        assert_eq!(t, (3.0, 4.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Point::new(1.0, 2.0).to_string(), "(1.00 m, 2.00 m)");
        let g = GeoPoint::new(31.5, 121.25).unwrap();
        assert_eq!(g.to_string(), "(31.500000°, 121.250000°)");
    }
}
