//! The longitudinal location exposure attack (Section III of the
//! Edge-PrivLocAd paper).
//!
//! An honest-but-curious observer of the ad-bidding stream (an ad network,
//! an advertiser, or a traffic-verification company) accumulates a user's
//! reported — and individually geo-IND-obfuscated — locations over weeks to
//! years. Because the user's *top locations* (home, workplace) repeat day
//! after day while geo-IND protects each report independently, the noise
//! averages out: the attack recovers top locations to within tens of meters
//! given a year of data.
//!
//! The crate provides:
//!
//! - [`connectivity_clusters`]: the connectivity-based clustering primitive
//!   (two check-ins are connected if within θ meters), shared by profiling
//!   and de-obfuscation.
//! - [`LocationProfile`]: the attacker's reconstruction of Equation 2's
//!   location/frequency profile, with the location-entropy metric of
//!   Equation 3 (Fig. 3).
//! - [`DeobfuscationAttack`]: Algorithm 1 — iterated "largest cluster →
//!   trim → re-absorb" extraction of the top-n locations from obfuscated
//!   check-ins (Figs. 4 and 6).
//! - [`evaluation`]: rank-wise inference distances and attack success rates
//!   (the "% of top-k locations recovered within d meters" metric).
//!
//! # Examples
//!
//! ```
//! use privlocad_attack::DeobfuscationAttack;
//! use privlocad_geo::{rng::seeded, Point};
//! use privlocad_mechanisms::{Lppm, PlanarLaplace, PlanarLaplaceParams};
//!
//! // A user reporting home 300 times through one-time geo-IND.
//! let home = Point::new(1_000.0, 2_000.0);
//! let mech = PlanarLaplace::new(PlanarLaplaceParams::from_level(4f64.ln(), 200.0)?);
//! let mut rng = seeded(1);
//! let reports: Vec<Point> = (0..300).map(|_| mech.sample(home, &mut rng)).collect();
//!
//! let attack = DeobfuscationAttack::for_planar_laplace(&mech, 0.05)?;
//! let inferred = attack.infer_top_locations(&reports, 1);
//! assert!(inferred[0].location.distance(home) < 200.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clustering;
mod deobfuscation;
pub mod evaluation;
pub mod exchange;
pub mod patterns;
mod profiling;
pub mod semantics;

pub use clustering::{connectivity_clusters, connectivity_clusters_with, Cluster, ClusterScratch};
pub use deobfuscation::{AttackConfig, AttackScratch, DeobfuscationAttack, InferredLocation};
pub use exchange::ExchangeObservations;
pub use profiling::{LocationProfile, ProfileEntry};
