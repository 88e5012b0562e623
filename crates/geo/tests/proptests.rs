//! Property-based tests for the geometry substrate.

use privlocad_geo::{centroid, Circle, GeoPoint, LocalProjection, Point};
use proptest::prelude::*;

fn finite_coord() -> impl Strategy<Value = f64> {
    -100_000.0..100_000.0f64
}

fn point() -> impl Strategy<Value = Point> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn distance_nonnegative_symmetric(a in point(), b in point()) {
        prop_assert!(a.distance(b) >= 0.0);
        prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-9);
    }

    #[test]
    fn triangle_inequality(a in point(), b in point(), c in point()) {
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-6);
    }

    #[test]
    fn distance_translation_invariant(a in point(), b in point(), t in point()) {
        let d1 = a.distance(b);
        let d2 = (a + t).distance(b + t);
        // Relative tolerance: translation can shift magnitudes by ~1e5.
        prop_assert!((d1 - d2).abs() <= 1e-7 * (1.0 + d1));
    }

    #[test]
    fn centroid_within_bounding_box(pts in proptest::collection::vec(point(), 1..50)) {
        let c = centroid(&pts).unwrap();
        let (min_x, max_x) = pts.iter().fold((f64::MAX, f64::MIN), |(lo, hi), p| (lo.min(p.x), hi.max(p.x)));
        let (min_y, max_y) = pts.iter().fold((f64::MAX, f64::MIN), |(lo, hi), p| (lo.min(p.y), hi.max(p.y)));
        prop_assert!(c.x >= min_x - 1e-9 && c.x <= max_x + 1e-9);
        prop_assert!(c.y >= min_y - 1e-9 && c.y <= max_y + 1e-9);
    }

    #[test]
    fn projection_round_trip(lat in 30.7..31.4f64, lon in 121.0..122.0f64) {
        let proj = LocalProjection::new(GeoPoint::new(31.05, 121.5).unwrap());
        let g = GeoPoint::new(lat, lon).unwrap();
        let back = proj.to_geo(proj.to_local(g)).unwrap();
        prop_assert!((back.lat() - lat).abs() < 1e-9);
        prop_assert!((back.lon() - lon).abs() < 1e-9);
    }

    #[test]
    fn lens_area_bounded_by_smaller_disc(
        d in 0.0..1_000.0f64,
        r1 in 1.0..500.0f64,
        r2 in 1.0..500.0f64,
    ) {
        let a = Circle::new(Point::ORIGIN, r1).unwrap();
        let b = Circle::new(Point::new(d, 0.0), r2).unwrap();
        let lens = a.intersection_area(&b);
        let min_area = a.area().min(b.area());
        prop_assert!(lens >= 0.0);
        prop_assert!(lens <= min_area + 1e-6);
    }

    #[test]
    fn lens_area_rotation_invariant(d in 0.0..400.0f64, angle in 0.0..std::f64::consts::TAU, r in 10.0..200.0f64) {
        let a = Circle::new(Point::ORIGIN, r).unwrap();
        let b1 = Circle::new(Point::new(d, 0.0), r).unwrap();
        let b2 = Circle::new(Point::new(d * angle.cos(), d * angle.sin()), r).unwrap();
        prop_assert!((a.intersection_area(&b1) - a.intersection_area(&b2)).abs() < 1e-6);
    }
}
