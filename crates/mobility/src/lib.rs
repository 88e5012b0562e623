//! Synthetic location-based-advertising mobility dataset.
//!
//! The paper evaluates on a proprietary RTB transaction log: 37,262 mobile
//! users in Shanghai (lat ∈ [30.7, 31.4], lon ∈ [121, 122]) observed from
//! June 1 2019 to May 31 2021, with 20 to 11,435 spatiotemporal points per
//! user. That log is not available, so this crate generates a population
//! with the same statistical structure the attack exploits:
//!
//! - every user has a small set of **top locations** (home, workplace, …)
//!   that dominate their check-ins, plus a tail of **nomadic** one-off
//!   locations;
//! - per-user check-in counts follow a clipped log-normal spanning the
//!   paper's range;
//! - heavier users are *more* routine-bound, reproducing Fig. 3's negative
//!   correlation between check-in count and location entropy and its
//!   "88.8 % of users below entropy 2" statistic;
//! - raw check-ins carry small GPS jitter around the true place, so the
//!   50 m connectivity profiling of Section III-B behaves as in the paper;
//! - timestamps follow a diurnal home/work pattern across the 2-year span.
//!
//! # Examples
//!
//! ```
//! use privlocad_mobility::{PopulationConfig, UserId};
//!
//! let config = PopulationConfig::builder().num_users(10).seed(7).build();
//! let user = config.generate_user(3);
//! assert_eq!(user.user, UserId::new(3));
//! assert!(user.checkins.len() >= 20);
//! assert!(!user.truth.top_locations.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
pub mod shanghai;
mod temporal;
mod trace;

pub use generator::{
    Dataset, GroundTruth, PopulationConfig, PopulationConfigBuilder, Relocation, UserTrace,
};
pub use temporal::{Timestamp, DAYS_IN_STUDY, SECONDS_PER_DAY};
pub use trace::{CheckIn, UserId};
