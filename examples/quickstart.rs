//! Quickstart: protect one user's top location against a longitudinal
//! observer while still receiving relevant ads.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use privlocad::protocol::ClientRequest;
use privlocad::replay::emit_bids;
use privlocad::{filter_ads_by, EdgeDevice, SystemConfig};
use privlocad_adnet::{AdNetwork, BidExchange, Campaign, Targeting};
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_openrtb::{BidSink, DeviceId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Configure the system with the paper's defaults:
    //    (r = 500 m, eps = 1, delta = 0.01, n = 10)-geo-IND for top
    //    locations, planar Laplace for nomadic positions.
    let config = SystemConfig::builder().build()?;
    println!(
        "n-fold Gaussian sigma = {:.0} m for (r={}, eps={}, delta={}, n={})",
        config.geo_ind().sigma(),
        config.geo_ind().r(),
        config.geo_ind().epsilon(),
        config.geo_ind().delta(),
        config.geo_ind().n(),
    );

    // 2. A trusted edge device and a (curious) ad network with two
    //    campaigns: a coffee shop near home and a gym across town.
    let mut edge = EdgeDevice::new(config, 7);
    let home = Point::new(1_000.0, 2_000.0);
    let network = AdNetwork::new(vec![
        Campaign::new(0, "coffee near home", Targeting::radius(home, 25_000.0)?, 2.5)?,
        Campaign::new(
            1,
            "gym across town",
            Targeting::radius(Point::new(70_000.0, 0.0), 25_000.0)?,
            4.0,
        )?,
    ]);

    // 3. A profile window of check-ins at home, then window close: the
    //    edge learns the top location and releases its permanent
    //    candidates once.
    let user = UserId::new(42);
    for _ in 0..60 {
        edge.report_checkin(user, home);
    }
    let fresh = edge.finalize_window(user);
    println!("window closed: {fresh} top location(s) obfuscated permanently");

    // 4. Ad requests from home reuse the same candidate set forever.
    let candidates = edge.candidates(user, home).expect("home is a top location").to_vec();
    println!("permanent candidates ({}):", candidates.len());
    for c in &candidates {
        println!("  {c}  ({:.0} m from home)", c.distance(home));
    }
    // Each served request leaves the edge as an OpenRTB-lite bid carrying
    // only the reported location; the exchange auctions it, and the edge
    // filters the matching ads to the user's true area of interest.
    let requests = [ClientRequest::RequestLocation { user, location: home }; 5];
    let mut responses = Vec::new();
    edge.serve_batch(&requests, &mut responses);
    let sink = BidSink::new();
    emit_bids(&sink, &requests, &responses);
    let mut exchange = BidExchange::new(network);
    exchange.pump(&sink)?;
    for record in exchange.log().records() {
        let reported = record.location();
        let delivered =
            filter_ads_by(exchange.network().matching(reported), home, config.targeting_radius_m());
        println!(
            "request {}: reported {} -> {} ad(s) delivered{}",
            record.request.seq,
            reported,
            delivered.len(),
            delivered.first().map(|a| format!(" (top: {})", a.name())).unwrap_or_default(),
        );
        assert!(candidates.contains(&reported));
    }

    // 5. What the curious network learned: only candidate points.
    let observed = exchange.log().locations_of(DeviceId::new(42));
    println!(
        "ad network observed {} reports, {} distinct locations, none equal to home",
        observed.len(),
        {
            let mut d = observed.clone();
            d.sort_by(|a, b| (a.x, a.y).partial_cmp(&(b.x, b.y)).unwrap());
            d.dedup();
            d.len()
        }
    );
    assert!(!observed.contains(&home));
    Ok(())
}
