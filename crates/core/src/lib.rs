//! **Edge-PrivLocAd**: an edge-assisted location privacy system for
//! location-based advertising, reproducing the ICDCS 2022 paper
//! *"Thwarting Longitudinal Location Exposure Attacks in Advertising
//! Ecosystem via Edge Computing"*.
//!
//! The system (Fig. 5 of the paper) interposes a trusted edge device
//! between mobile users and the untrusted LBA provider and runs three
//! modules per user:
//!
//! 1. **Location management** ([`LocationManager`]): collects check-ins
//!    over a configurable time window, builds the location profile
//!    (Equation 2) and extracts the η-frequent location set (Definition 6,
//!    Algorithm 2) — the top locations that need longitudinal protection.
//! 2. **Location obfuscation** ([`ObfuscationModule`]): for every top
//!    location, generates `n` *permanent* obfuscated candidates with the
//!    n-fold Gaussian mechanism (Theorem 2) and stores them in the
//!    obfuscation table `T`. Re-using the same candidates forever is what
//!    defeats the longitudinal attacker: more observations reveal nothing
//!    new.
//! 3. **Output selection** ([`privlocad_mechanisms::PosteriorSelector`]
//!    via [`EdgeDevice`]): per ad request, draws one candidate with
//!    posterior-proportional probability (Algorithm 4) — pure
//!    post-processing, so no extra privacy is spent — and reports it to
//!    the ad network. Returned ads are filtered to the user's true area of
//!    interest ([`filter_ads_by`]) before delivery.
//!
//! Check-ins at *nomadic* (non-top) locations fall back to classic
//! one-time planar-Laplace geo-IND, which is safe for locations the user
//! rarely revisits.
//!
//! # Quickstart
//!
//! ```
//! use privlocad::{EdgeDevice, SystemConfig};
//! use privlocad_geo::Point;
//! use privlocad_mobility::UserId;
//!
//! let config = SystemConfig::builder().build()?;
//! let mut edge = EdgeDevice::new(config, 7);
//! let user = UserId::new(0);
//!
//! // A window of check-ins at the user's home.
//! for _ in 0..50 {
//!     edge.report_checkin(user, Point::new(1_000.0, 2_000.0));
//! }
//! edge.finalize_window(user);
//!
//! // Ad requests from home now report a *permanent* obfuscated candidate.
//! let a = edge.reported_location(user, Point::new(1_000.0, 2_000.0));
//! let b = edge.reported_location(user, Point::new(1_000.0, 2_000.0));
//! let candidates = edge.candidates(user, Point::new(1_000.0, 2_000.0)).unwrap();
//! assert!(candidates.contains(&a) && candidates.contains(&b));
//! # Ok::<(), privlocad::SystemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod config;
mod edge;
mod error;
pub mod fabric;
mod filter;
mod fleet;
mod management;
mod obfuscation;
pub mod protocol;
pub mod recovery;
pub mod replay;
mod risk;
mod server;
mod shard;
mod user;

pub use arena::{CandidateArena, PreparedSet};
pub use config::{EtaThreshold, SelectionKind, SystemConfig, SystemConfigBuilder};
pub use edge::{DeviceStats, EdgeDevice};
pub use error::SystemError;
pub use fabric::{
    BreakerConfig, BreakerEvent, ChannelFaultPlan, FabricError, FabricOptions, FabricRouter,
    FabricStats, Faulty, LaneOutage, ServedLocation,
};
pub use filter::filter_ads_by;
pub use fleet::EdgeFleet;
pub use management::{frequent_location_set, LocationManager};
pub use obfuscation::{ObfuscationModule, ObfuscationTable};
pub use recovery::{candidate_redraws, DeviceSnapshot, RecoveryError};
pub use risk::{LocationRisk, Recommendation, RiskAssessor, RiskReport};
pub use server::{EdgeHandle, FaultPlan, RetryPolicy, ServerOptions, TransportError};
pub use shard::{Direct, Router, ShardRouter, StateFootprint};
