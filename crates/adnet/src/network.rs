use privlocad_geo::Point;
use serde::{Deserialize, Serialize};

use crate::serving::{ServingLedger, ServingPolicy, ServingState};
use crate::{BidRequest, Campaign, CampaignId};

/// The result of one second-price auction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuctionOutcome {
    /// The winning campaign, cloned out of the inventory.
    pub winner: Campaign,
    /// The clearing price: the second-highest bid, or the winner's own bid
    /// when it was the only matching campaign.
    pub price: f64,
}

/// The ad network: matches bid requests against the campaign inventory and
/// runs second-price auctions (Section II-A's "ads matching &
/// distribution" role).
///
/// # Examples
///
/// ```
/// use privlocad_adnet::{AdNetwork, BidRequest, Campaign, DeviceId, Targeting};
/// use privlocad_geo::Point;
///
/// let network = AdNetwork::new(vec![
///     Campaign::new(0, "high bidder", Targeting::radius(Point::ORIGIN, 5_000.0)?, 10.0)?,
///     Campaign::new(1, "low bidder", Targeting::radius(Point::ORIGIN, 5_000.0)?, 4.0)?,
/// ]);
/// let req = BidRequest { device: DeviceId::new(1), location: Point::ORIGIN };
/// let outcome = network.auction(&req).unwrap();
/// assert_eq!(outcome.winner.name(), "high bidder");
/// assert_eq!(outcome.price, 4.0); // pays the second price
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdNetwork {
    campaigns: Vec<Campaign>,
    ledger: ServingLedger,
    area_grid: Option<crate::AreaGrid>,
    country: u16,
}

impl AdNetwork {
    /// Creates a network serving the given inventory with unlimited
    /// serving policies. Area/country campaigns never match until
    /// [`AdNetwork::set_area_grid`] / [`AdNetwork::set_country`] configure
    /// the request-side resolution.
    pub fn new(campaigns: Vec<Campaign>) -> Self {
        AdNetwork {
            campaigns,
            ledger: ServingLedger::new(),
            area_grid: None,
            country: 0,
        }
    }

    /// Configures how reported locations resolve to administrative-area
    /// ids (enables `Targeting::Area` campaigns).
    pub fn set_area_grid(&mut self, grid: crate::AreaGrid) {
        self.area_grid = Some(grid);
    }

    /// Sets the country id carried by every request (enables
    /// `Targeting::Country` campaigns).
    pub fn set_country(&mut self, country: u16) {
        self.country = country;
    }

    /// Attaches a budget / frequency-cap policy to a campaign.
    pub fn set_policy(&mut self, campaign: CampaignId, policy: ServingPolicy) {
        self.ledger.set_policy(campaign, policy);
    }

    /// The delivery state (spend, impressions) of a campaign.
    pub fn serving_state(&self, campaign: CampaignId) -> ServingState {
        self.ledger.state(campaign)
    }

    /// The full campaign inventory.
    pub fn campaigns(&self) -> &[Campaign] {
        &self.campaigns
    }

    /// Adds a campaign to the inventory.
    pub fn register(&mut self, campaign: Campaign) {
        self.campaigns.push(campaign);
    }

    /// The campaigns whose targeting matches a request at `location`.
    /// Radius campaigns match geometrically; area campaigns through the
    /// configured [`AreaGrid`](crate::AreaGrid); country campaigns through
    /// the configured country id.
    pub fn matching(&self, location: Point) -> Vec<&Campaign> {
        let area = self.area_grid.map_or(0, |g| g.area_of(location));
        self.campaigns
            .iter()
            .filter(|c| c.matches(location, area, self.country))
            .collect()
    }

    /// Runs a second-price auction among matching campaigns without
    /// recording it. Returns `None` when nothing matches.
    ///
    /// Campaigns over budget or over their per-device frequency cap for
    /// the requesting device do not participate.
    pub fn auction(&self, request: &BidRequest) -> Option<AuctionOutcome> {
        let mut matched: Vec<&Campaign> = self
            .matching(request.location)
            .into_iter()
            .filter(|c| self.ledger.eligible(c.id(), request.device))
            .collect();
        if matched.is_empty() {
            return None;
        }
        matched.sort_by(|a, b| {
            b.bid_cpm()
                .partial_cmp(&a.bid_cpm())
                .expect("bids are finite")
                .then(a.id().cmp(&b.id()))
        });
        let winner = matched[0].clone();
        let price = matched.get(1).map_or(winner.bid_cpm(), |c| c.bid_cpm());
        Some(AuctionOutcome { winner, price })
    }

    /// Serves a request: runs the auction and records the winner's spend
    /// and impression in the serving ledger (budgets, frequency caps).
    pub fn serve(&mut self, request: BidRequest) -> Option<AuctionOutcome> {
        let outcome = self.auction(&request);
        if let Some(o) = &outcome {
            self.ledger.record(o.winner.id(), request.device, o.price);
        }
        outcome
    }

    /// Serves one OpenRTB-lite request — the wire adapter of
    /// [`AdNetwork::serve`]: the auction runs at the request's reported geo
    /// with the requesting device's ledger eligibility, spend and
    /// frequency caps are recorded, and the outcome comes back as a codec
    /// [`BidResponse`](privlocad_openrtb::BidResponse) echoing the request
    /// id.
    ///
    /// Prices cross the wire in integer micro-units
    /// (`round(cpm × 1e6)`), so exchange-log digests never depend on float
    /// formatting.
    pub fn serve_exchange(
        &mut self,
        request: &privlocad_openrtb::BidRequest,
    ) -> privlocad_openrtb::BidResponse {
        let auctioned =
            BidRequest { device: request.device.id, location: request.device.geo.point() };
        match self.serve(auctioned) {
            None => privlocad_openrtb::BidResponse::no_bid(request.id),
            Some(o) => {
                let seat = o.winner.id().raw();
                let bid = privlocad_openrtb::Bid {
                    imp: request.imp.id,
                    price_micros: (o.price * 1e6).round() as u64,
                    adm: privlocad_openrtb::fnv1a64(&seat.to_be_bytes()),
                };
                privlocad_openrtb::BidResponse::win(
                    request.id,
                    privlocad_openrtb::SeatBid { seat, bid },
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceId, Targeting};

    fn radius_campaign(id: u64, x: f64, radius: f64, bid: f64) -> Campaign {
        Campaign::new(
            id,
            format!("c{id}"),
            Targeting::radius(Point::new(x, 0.0), radius).unwrap(),
            bid,
        )
        .unwrap()
    }

    fn req(x: f64) -> BidRequest {
        BidRequest { device: DeviceId::new(1), location: Point::new(x, 0.0) }
    }

    #[test]
    fn matching_respects_radius() {
        let net = AdNetwork::new(vec![
            radius_campaign(0, 0.0, 1_000.0, 1.0),
            radius_campaign(1, 10_000.0, 1_000.0, 1.0),
        ]);
        let m = net.matching(Point::new(500.0, 0.0));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].id().raw(), 0);
    }

    #[test]
    fn second_price_auction() {
        let net = AdNetwork::new(vec![
            radius_campaign(0, 0.0, 5_000.0, 2.0),
            radius_campaign(1, 0.0, 5_000.0, 8.0),
            radius_campaign(2, 0.0, 5_000.0, 5.0),
        ]);
        let o = net.auction(&req(0.0)).unwrap();
        assert_eq!(o.winner.id().raw(), 1);
        assert_eq!(o.price, 5.0);
    }

    #[test]
    fn single_bidder_pays_own_bid() {
        let net = AdNetwork::new(vec![radius_campaign(0, 0.0, 5_000.0, 3.5)]);
        let o = net.auction(&req(0.0)).unwrap();
        assert_eq!(o.price, 3.5);
    }

    #[test]
    fn tie_broken_by_campaign_id() {
        let net = AdNetwork::new(vec![
            radius_campaign(5, 0.0, 5_000.0, 4.0),
            radius_campaign(2, 0.0, 5_000.0, 4.0),
        ]);
        let o = net.auction(&req(0.0)).unwrap();
        assert_eq!(o.winner.id().raw(), 2);
        assert_eq!(o.price, 4.0);
    }

    #[test]
    fn no_match_no_outcome_and_no_spend() {
        let mut net = AdNetwork::new(vec![radius_campaign(0, 50_000.0, 100.0, 1.0)]);
        assert!(net.serve(req(0.0)).is_none());
        let state = net.serving_state(CampaignId::new(0));
        assert_eq!(state.total_impressions(), 0);
        assert_eq!(state.spent(), 0.0);
    }

    #[test]
    fn area_campaigns_match_through_the_grid() {
        use crate::{AreaGrid, Targeting};
        let grid = AreaGrid::new(10_000.0);
        let downtown = grid.area_of(Point::new(5_000.0, 5_000.0));
        let mut net = AdNetwork::new(vec![Campaign::new(
            0u64,
            "city-wide",
            Targeting::Area(downtown),
            3.0,
        )
        .unwrap()]);
        // Without a grid the area campaign never matches.
        assert!(net.matching(Point::new(5_000.0, 5_000.0)).is_empty());
        net.set_area_grid(grid);
        assert_eq!(net.matching(Point::new(5_000.0, 5_000.0)).len(), 1);
        assert_eq!(net.matching(Point::new(2_000.0, 8_000.0)).len(), 1); // same cell
        assert!(net.matching(Point::new(15_000.0, 5_000.0)).is_empty()); // next cell
    }

    #[test]
    fn country_campaigns_match_after_configuration() {
        use crate::Targeting;
        let mut net =
            AdNetwork::new(vec![Campaign::new(0u64, "national", Targeting::Country(86), 1.0)
                .unwrap()]);
        assert!(net.matching(Point::ORIGIN).is_empty());
        net.set_country(86);
        assert_eq!(net.matching(Point::ORIGIN).len(), 1);
        net.set_country(1);
        assert!(net.matching(Point::ORIGIN).is_empty());
    }

    #[test]
    fn budget_exhaustion_hands_wins_to_the_runner_up() {
        let mut net = AdNetwork::new(vec![
            radius_campaign(0, 0.0, 5_000.0, 10.0),
            radius_campaign(1, 0.0, 5_000.0, 4.0),
        ]);
        // The top bidder can afford exactly two second-price (4.0) wins.
        net.set_policy(CampaignId::new(0), ServingPolicy::unlimited().with_budget(8.0));
        for _ in 0..2 {
            let o = net.serve(req(0.0)).unwrap();
            assert_eq!(o.winner.id().raw(), 0);
            assert_eq!(o.price, 4.0);
        }
        // Budget exhausted: the runner-up now wins at its own bid.
        let o = net.serve(req(0.0)).unwrap();
        assert_eq!(o.winner.id().raw(), 1);
        assert_eq!(o.price, 4.0);
        assert!((net.serving_state(CampaignId::new(0)).spent() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn frequency_cap_applies_per_device() {
        let mut net = AdNetwork::new(vec![radius_campaign(0, 0.0, 5_000.0, 2.0)]);
        net.set_policy(CampaignId::new(0), ServingPolicy::unlimited().with_frequency_cap(1));
        assert!(net.serve(req(0.0)).is_some());
        assert!(net.serve(req(0.0)).is_none(), "device 1 is capped");
        let other = BidRequest { device: DeviceId::new(2), location: Point::ORIGIN };
        assert!(net.serve(other).is_some(), "other devices still served");
        assert_eq!(net.serving_state(CampaignId::new(0)).total_impressions(), 2);
    }

    #[test]
    fn serve_exchange_mirrors_the_legacy_auction() {
        use privlocad_openrtb::{DeviceId as Did, Geo};
        let mut net = AdNetwork::new(vec![
            radius_campaign(0, 0.0, 5_000.0, 8.0),
            radius_campaign(1, 0.0, 5_000.0, 5.0),
        ]);
        let request =
            privlocad_openrtb::BidRequest::new(Did::new(1), 0, Geo { x: 100.0, y: 0.0 });
        let response = net.serve_exchange(&request);
        assert_eq!(response.id, request.id);
        let sb = response.seatbid.unwrap();
        assert_eq!(sb.seat, 0, "highest bidder wins");
        assert_eq!(sb.bid.price_micros, 5_000_000, "pays the second price in micros");
        assert_eq!(net.serving_state(CampaignId::new(0)).total_impressions(), 1);
        let far =
            privlocad_openrtb::BidRequest::new(Did::new(1), 1, Geo { x: 50_000.0, y: 0.0 });
        assert!(!net.serve_exchange(&far).is_win(), "out of radius is a no-bid");
        assert_eq!(net.serving_state(CampaignId::new(0)).total_impressions(), 1);
    }

    #[test]
    fn register_extends_inventory() {
        let mut net = AdNetwork::default();
        assert!(net.matching(Point::ORIGIN).is_empty());
        net.register(radius_campaign(0, 0.0, 1_000.0, 1.0));
        assert_eq!(net.campaigns().len(), 1);
        assert_eq!(net.matching(Point::ORIGIN).len(), 1);
    }
}
