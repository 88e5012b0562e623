//! An advertiser's view: radius-targeted campaigns, second-price auctions,
//! and what privacy protection does (and does not) cost them.
//!
//! Runs a small population through the full Edge-PrivLocAd pipeline over a
//! synthetic campaign inventory and reports auction volume, clearing
//! prices, and how many delivered ads were actually relevant (inside the
//! users' true areas of interest).
//!
//! ```sh
//! cargo run --release --example lba_campaign
//! ```

use privlocad::replay::replay_trace;
use privlocad::{filter_ads_by, EdgeDevice, SystemConfig};
use privlocad_adnet::inventory::{generate, InventoryConfig};
use privlocad_adnet::{platforms, AdNetwork, BidExchange};
use privlocad_mobility::{shanghai, PopulationConfig};
use privlocad_openrtb::{BidSink, DeviceId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Platform-conformant campaigns scattered over the study area.
    let (lo, hi) = platforms::common_interval();
    println!("cross-platform radius-targeting interval: {:.0} m – {:.0} m", lo, hi);
    let inventory = generate(
        &InventoryConfig { count: 400, ..InventoryConfig::default() },
        shanghai::bounding_box(),
        &shanghai::projection(),
        3,
    );
    println!("generated {} campaigns (Tencent limits, capped at 25 km)", inventory.len());

    // A small population served through the edge.
    let population = PopulationConfig::builder()
        .num_users(10)
        .seed(5)
        .checkin_log_normal(5.0, 0.3) // lighter users keep the demo quick
        .build();
    let config = SystemConfig::builder().build()?;
    let mut edge = EdgeDevice::new(config, 8);
    let sink = BidSink::new();
    let mut exchange = BidExchange::new(AdNetwork::new(inventory));

    let mut requests = 0usize;
    let mut won = 0usize;
    let mut delivered = 0usize;
    for i in 0..population.num_users() as u32 {
        let user = population.generate_user(i);
        // The user's ad requests leave the edge as bids and settle at the
        // exchange; bid `seq` k is check-in k.
        replay_trace(&mut edge, &user, &sink);
        let user_requests = exchange.pump(&sink)?;
        let device = DeviceId::new(u64::from(user.user.raw()));
        let (mut user_won, mut user_delivered) = (0, 0);
        let mut exposed = exchange.log().locations_of(device);
        for record in exchange.log().records().filter(|r| r.request.device.id == device) {
            user_won += usize::from(record.response.is_win());
            let truth = user.checkins[record.request.seq as usize].location;
            let matching = exchange.network().matching(record.location());
            user_delivered +=
                filter_ads_by(matching, truth, config.targeting_radius_m()).len();
        }
        exposed.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        exposed.dedup();
        requests += user_requests;
        won += user_won;
        delivered += user_delivered;
        println!(
            "user {:>2}: {:>5} requests, {:>5} auctions won, {:>6} relevant ads delivered, \
             {:>3} distinct locations exposed",
            i,
            user_requests,
            user_won,
            user_delivered,
            exposed.len()
        );
    }

    let log = exchange.log();
    println!("\ntotals: {requests} requests, {won} auctions won, {delivered} ads delivered");
    println!(
        "exchange log: {} transactions, {:.0} total clearing price units",
        log.len(),
        log.revenue_micros() as f64 / 1e6
    );
    println!(
        "average relevant ads per request after the edge's AOI filter: {:.2}",
        delivered as f64 / requests as f64
    );
    Ok(())
}
