//! Location-based-advertising (LBA) ecosystem substrate.
//!
//! Section II of the Edge-PrivLocAd paper describes the business model this
//! crate implements: *advertisers* register campaigns with a business
//! location and a targeting radius; the *ad network* matches incoming bid
//! requests (carrying the user's reported location) against campaign
//! targeting, and runs a second-price auction among matching bidders. The
//! OpenRTB-lite requests it settles ([`BidExchange`]) are exactly the
//! observation channel of the longitudinal attacker.
//!
//! Provided pieces:
//!
//! - [`platforms`]: the radius-targeting limits of the four platforms
//!   surveyed in Table I (Google, Microsoft, Facebook, Tencent).
//! - [`Campaign`] / [`Targeting`]: advertiser campaigns with radius, area,
//!   or country targeting.
//! - [`AdNetwork`]: matching and second-price auctions over an inventory,
//!   with budgets and frequency caps; [`BidRequest`] is what one auction
//!   sees.
//! - [`BidExchange`]: the network behind the OpenRTB-lite wire, settling
//!   bid requests into the deterministic exchange log an
//!   honest-but-curious observer accumulates.
//! - [`inventory`]: a synthetic campaign generator for the evaluation.
//!
//! # Examples
//!
//! ```
//! use privlocad_adnet::{AdNetwork, Campaign, Targeting};
//! use privlocad_geo::Point;
//!
//! let shop = Campaign::new(0, "coffee", Targeting::radius(Point::ORIGIN, 5_000.0)?, 2.5)?;
//! let far = Campaign::new(1, "gym", Targeting::radius(Point::new(50_000.0, 0.0), 5_000.0)?, 4.0)?;
//! let network = AdNetwork::new(vec![shop, far]);
//!
//! let matches = network.matching(Point::new(1_000.0, 0.0));
//! assert_eq!(matches.len(), 1);
//! assert_eq!(matches[0].name(), "coffee");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod areas;
mod campaign;
mod error;
pub mod exchange;
pub mod inventory;
mod network;
pub mod platforms;
mod rtb;
mod serving;

pub use areas::AreaGrid;
pub use campaign::{Campaign, CampaignId, Targeting};
pub use error::AdError;
pub use exchange::BidExchange;
pub use network::{AdNetwork, AuctionOutcome};
pub use rtb::{BidRequest, DeviceId};
pub use serving::{ServingLedger, ServingPolicy, ServingState};
