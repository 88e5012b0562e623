//! Location privacy-preserving mechanisms (LPPMs) from the Edge-PrivLocAd
//! paper and its baselines.
//!
//! This crate implements:
//!
//! - [`PlanarLaplace`]: the classic ε-geo-indistinguishability mechanism of
//!   Andrés et al. (CCS 2013), used by the paper as the *one-time geo-IND*
//!   obfuscation that the longitudinal attack defeats. Its radial quantile
//!   function needs the Lambert W function, implemented in [`lambert_w`].
//! - [`NFoldGaussian`]: the paper's novel mechanism (Definition 7,
//!   Algorithm 3). Given a real location it releases `n` independent
//!   Gaussian-perturbed candidates whose *joint* release satisfies
//!   `(r, ε, δ, n)`-geo-IND with `σ = (√n·r/ε)·sqrt(ln(1/δ²) + ε)`
//!   (Theorem 2, proved via the sample-mean sufficient statistic).
//! - Baselines of Section VII-A: [`NaivePostProcessing`] (one Gaussian
//!   output, then `n` uniform re-samples around it) and
//!   [`PlainComposition`] (n outputs, each at `(r, ε/n, δ/n, 1)`).
//! - [`PosteriorSelector`]: the posterior-based output selection of
//!   Algorithm 4 — a pure post-processing step that picks which of the `n`
//!   candidates to report for an ad request.
//! - [`verifier`]: analytic and Monte-Carlo checks that the released
//!   distributions actually satisfy the claimed geo-IND bounds.
//!
//! # Examples
//!
//! ```
//! use privlocad_geo::{rng::seeded, Point};
//! use privlocad_mechanisms::{GeoIndParams, Lppm, NFoldGaussian};
//!
//! let params = GeoIndParams::new(500.0, 1.0, 0.01, 10)?;
//! let mech = NFoldGaussian::new(params);
//! let mut rng = seeded(7);
//! let candidates = mech.obfuscate(Point::new(1_000.0, 2_000.0), &mut rng);
//! assert_eq!(candidates.len(), 10);
//! # Ok::<(), privlocad_mechanisms::MechanismError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
mod baselines;
mod batch;
mod error;
mod gaussian;
pub mod lambert_w;
mod params;
mod planar_laplace;
mod selection;
pub mod special;
mod traits;
pub mod verifier;

pub use accounting::basic_composition;
pub use baselines::{NaivePostProcessing, PlainComposition};
pub use batch::{BatchScratch, CandidateLanes};
pub use error::MechanismError;
pub use gaussian::NFoldGaussian;
pub use params::{GeoIndParams, PlanarLaplaceParams};
pub use planar_laplace::PlanarLaplace;
pub use selection::{
    PosteriorSelector, PosteriorTable, SelectionCache, SelectionStrategy, UniformSelector,
};
pub use traits::Lppm;
