//! Property-based tests for the advertising substrate.

use privlocad_adnet::{
    AdNetwork, BidRequest, Campaign, DeviceId, Targeting,
};
use privlocad_geo::Point;
use proptest::prelude::*;

fn point() -> impl Strategy<Value = Point> {
    (-50_000.0..50_000.0f64, -50_000.0..50_000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn campaign(id: u64) -> impl Strategy<Value = Campaign> {
    (point(), 500.0..25_000.0f64, 0.1..50.0f64).prop_map(move |(c, r, bid)| {
        Campaign::new(id, format!("c{id}"), Targeting::radius(c, r).unwrap(), bid).unwrap()
    })
}

fn inventory() -> impl Strategy<Value = Vec<Campaign>> {
    proptest::collection::vec(any::<u8>(), 0..12).prop_flat_map(|ids| {
        let strategies: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, _)| campaign(i as u64))
            .collect();
        strategies
    })
}

proptest! {
    #[test]
    fn auction_winner_has_max_bid_among_matches(ads in inventory(), loc in point()) {
        let net = AdNetwork::new(ads);
        let req = BidRequest { device: DeviceId::new(1), location: loc };
        let matched = net.matching(loc);
        match net.auction(&req) {
            None => prop_assert!(matched.is_empty()),
            Some(outcome) => {
                prop_assert!(outcome.winner.matches(loc, 0, 0));
                let max_bid = matched.iter().map(|c| c.bid_cpm()).fold(f64::MIN, f64::max);
                prop_assert!((outcome.winner.bid_cpm() - max_bid).abs() < 1e-12);
                // Second-price: clearing price never exceeds the winning bid
                // and is at least the lowest matching bid.
                prop_assert!(outcome.price <= outcome.winner.bid_cpm() + 1e-12);
                let min_bid = matched.iter().map(|c| c.bid_cpm()).fold(f64::MAX, f64::min);
                prop_assert!(outcome.price >= min_bid - 1e-12);
            }
        }
    }

    /// `serve` records every won auction in the serving ledger: one
    /// impression and the clearing price per win, nothing for a no-match.
    #[test]
    fn serve_always_logs(ads in inventory(), locs in proptest::collection::vec(point(), 1..20)) {
        let mut net = AdNetwork::new(ads);
        let mut wins = 0u32;
        let mut paid = 0.0;
        for &loc in &locs {
            if let Some(o) = net.serve(BidRequest { device: DeviceId::new(7), location: loc }) {
                wins += 1;
                paid += o.price;
            }
        }
        let states: Vec<_> =
            net.campaigns().iter().map(|c| net.serving_state(c.id())).collect();
        prop_assert_eq!(states.iter().map(|s| s.total_impressions()).sum::<u32>(), wins);
        let spent: f64 = states.iter().map(|s| s.spent()).sum();
        prop_assert!((spent - paid).abs() < 1e-9);
    }

    #[test]
    fn matching_is_consistent_with_campaign_matches(ads in inventory(), loc in point()) {
        let net = AdNetwork::new(ads.clone());
        let matched: Vec<u64> = net.matching(loc).iter().map(|c| c.id().raw()).collect();
        let expected: Vec<u64> = ads
            .iter()
            .filter(|c| c.matches(loc, 0, 0))
            .map(|c| c.id().raw())
            .collect();
        prop_assert_eq!(matched, expected);
    }
}
