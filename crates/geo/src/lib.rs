//! Planar geometry substrate for the Edge-PrivLocAd reproduction.
//!
//! Location privacy mechanisms (geo-indistinguishability, the n-fold Gaussian
//! mechanism) and the longitudinal de-obfuscation attack all operate on
//! *planar* Euclidean coordinates measured in meters, while the synthetic
//! dataset and the advertising substrate speak WGS-84 latitude/longitude.
//! This crate provides the shared vocabulary:
//!
//! - [`Point`]: a position in a local tangent plane, in meters.
//! - [`GeoPoint`]: a WGS-84 position in degrees.
//! - [`LocalProjection`]: an equirectangular projection between the two,
//!   accurate to well under a meter over a metropolitan-scale area such as
//!   the Shanghai bounding box used by the paper.
//! - [`Circle`]: disc geometry including the exact circle–circle
//!   intersection ("lens") area needed by the utilization-rate metric.
//! - [`BoundingBox`]: the dataset's geographic extent.
//! - [`rng`]: seeded RNG construction and Gaussian sampling helpers (the
//!   allowed dependency set has no `rand_distr`, so normal deviates are
//!   produced with the Marsaglia polar method here).
//!
//! # Examples
//!
//! ```
//! use privlocad_geo::{GeoPoint, LocalProjection};
//!
//! let origin = GeoPoint::new(31.05, 121.5)?;
//! let proj = LocalProjection::new(origin);
//! let p = proj.to_local(GeoPoint::new(31.06, 121.51)?);
//! // ~1.11 km north, ~0.95 km east
//! assert!((p.y - 1_113.0).abs() < 5.0);
//! assert!((p.x - 953.0).abs() < 5.0);
//! # Ok::<(), privlocad_geo::GeoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbox;
mod circle;
mod distance;
mod error;
mod point;
mod projection;
pub mod rng;

pub use bbox::BoundingBox;
pub use circle::Circle;
pub use distance::{haversine_m, EARTH_RADIUS_M};
pub use error::GeoError;
pub use point::{centroid, GeoPoint, Point};
pub use projection::LocalProjection;
