//! Integration: the full advertising marketplace (mixed targeting, budgets,
//! frequency caps, area grid) served through the Edge-PrivLocAd pipeline.

use privlocad::{filter_ads_by, EdgeDevice, SystemConfig};
use privlocad_adnet::{AdNetwork, AreaGrid, Campaign, CampaignId, ServingPolicy, Targeting};
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_openrtb::{BidRequest, DeviceId, Geo};

fn settled_edge(home: Point) -> (EdgeDevice, UserId) {
    let mut edge = EdgeDevice::new(SystemConfig::builder().build().unwrap(), 31);
    let user = UserId::new(0);
    for _ in 0..50 {
        edge.report_checkin(user, home);
    }
    edge.finalize_window(user);
    (edge, user)
}

/// Serves ad request `seq` at `at`: the reported location goes to the
/// exchange as an OpenRTB-lite bid, and the ads matching it are filtered to
/// the true area of interest. Returns the winning campaign, if any, and
/// the delivered ads.
fn serve_ad<'n>(
    edge: &mut EdgeDevice,
    network: &'n mut AdNetwork,
    user: UserId,
    at: Point,
    seq: u64,
) -> (Option<u64>, Vec<&'n Campaign>) {
    let reported = edge.reported_location(user, at);
    let bid = BidRequest::new(DeviceId::new(u64::from(user.raw())), seq, Geo::from_point(reported));
    let winner = network.serve_exchange(&bid).seatbid.map(|won| won.seat);
    let network: &'n AdNetwork = network;
    (winner, filter_ads_by(network.matching(reported), at, edge.config().targeting_radius_m()))
}

#[test]
fn mixed_targeting_marketplace_over_obfuscated_requests() {
    let home = Point::new(2_000.0, 2_000.0);
    let (mut edge, user) = settled_edge(home);

    let mut network = AdNetwork::new(vec![
        // A radius campaign around home, wide enough to catch obfuscated
        // candidates (sigma ~5 km).
        Campaign::new(0, "local-radius", Targeting::radius(home, 25_000.0).unwrap(), 5.0).unwrap(),
        // A country-wide campaign.
        Campaign::new(1, "national", Targeting::Country(86), 1.0).unwrap(),
        // An area campaign for the 40 km super-cell around the origin.
        Campaign::new(2, "district", Targeting::Area(AreaGrid::new(40_000.0).area_of(home)), 2.0)
            .unwrap(),
    ]);
    network.set_country(86);
    network.set_area_grid(AreaGrid::new(40_000.0));

    let mut winners = std::collections::HashSet::new();
    let mut auctions = 0;
    for seq in 0..50 {
        let (winner, delivered) = serve_ad(&mut edge, &mut network, user, home, seq);
        // Non-geographic ads always pass the AOI filter; radius ads only
        // when truly relevant.
        for ad in delivered {
            if let Some(loc) = ad.business_location() {
                assert!(loc.distance(home) <= 5_000.0);
            }
        }
        if let Some(seat) = winner {
            winners.insert(seat);
            auctions += 1;
        }
    }
    // The high-bid radius campaign wins whenever the obfuscated request
    // lands in range; auctions always have at least the national bidder.
    assert!(winners.contains(&0) || winners.contains(&2) || winners.contains(&1));
    assert_eq!(auctions, 50);
}

#[test]
fn budgets_rotate_winners_under_the_edge_pipeline() {
    let home = Point::new(0.0, 0.0);
    let (mut edge, user) = settled_edge(home);
    let mut network = AdNetwork::new(vec![
        Campaign::new(0, "big-spender", Targeting::Country(86), 10.0).unwrap(),
        Campaign::new(1, "steady", Targeting::Country(86), 2.0).unwrap(),
    ]);
    network.set_country(86);
    // The top bidder pays the second price (2.0) and can afford 3 wins.
    network.set_policy(CampaignId::new(0), ServingPolicy::unlimited().with_budget(6.0));

    let mut first_wins = 0;
    let mut later_wins = 0;
    for seq in 0..10 {
        let (winner, _) = serve_ad(&mut edge, &mut network, user, home, seq);
        let winner = winner.expect("country campaign always matches");
        if seq < 3 {
            assert_eq!(winner, 0, "budget should last 3 wins");
            first_wins += 1;
        } else {
            assert_eq!(winner, 1, "runner-up takes over after exhaustion");
            later_wins += 1;
        }
    }
    assert_eq!(first_wins, 3);
    assert_eq!(later_wins, 7);
    assert!((network.serving_state(CampaignId::new(0)).spent() - 6.0).abs() < 1e-9);
}

#[test]
fn frequency_caps_limit_per_user_exposure_through_the_edge() {
    let home = Point::new(0.0, 0.0);
    let (mut edge, user) = settled_edge(home);
    let mut network =
        AdNetwork::new(vec![Campaign::new(0, "capped", Targeting::Country(86), 3.0).unwrap()]);
    network.set_country(86);
    network.set_policy(CampaignId::new(0), ServingPolicy::unlimited().with_frequency_cap(2));

    let mut wins = 0;
    for seq in 0..6 {
        if serve_ad(&mut edge, &mut network, user, home, seq).0.is_some() {
            wins += 1;
        }
    }
    assert_eq!(wins, 2, "the cap limits this device to two impressions");
}
