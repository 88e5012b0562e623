//! Cross-crate integration: synthetic population → edge device → bid wire
//! → ad exchange → longitudinal attacker, asserting the paper's end-to-end
//! claims.

use privlocad::replay::{observe, replay_trace};
use privlocad::{filter_ads_by, EdgeDevice, SystemConfig};
use privlocad_adnet::inventory::{generate, InventoryConfig};
use privlocad_adnet::{AdNetwork, BidExchange};
use privlocad_attack::evaluation::rank_distances;
use privlocad_attack::DeobfuscationAttack;
use privlocad_geo::Point;
use privlocad_mechanisms::{NFoldGaussian, PlanarLaplace, PlanarLaplaceParams};
use privlocad_mobility::{shanghai, PopulationConfig, UserTrace};
use privlocad_openrtb::{BidRequest, BidSink, DeviceId};

fn population() -> PopulationConfig {
    PopulationConfig::builder().num_users(8).seed(1234).checkin_log_normal(5.6, 0.3).build()
}

/// What the attacker observes of `user` replayed on a device over `master`.
fn observed(config: SystemConfig, master: u64, user: &UserTrace) -> Vec<Point> {
    let mut edge = EdgeDevice::new(config, master);
    let sink = BidSink::new();
    replay_trace(&mut edge, user, &sink);
    let device = DeviceId::new(u64::from(user.user.raw()));
    observe(&sink).unwrap().locations_of(device).to_vec()
}

#[test]
fn attack_beats_one_time_geoind_but_not_the_system() {
    let pop = population();
    let laplace = PlanarLaplace::new(PlanarLaplaceParams::from_level(4f64.ln(), 200.0).unwrap());
    let config = SystemConfig::builder().build().unwrap();
    let gaussian = NFoldGaussian::new(config.geo_ind());

    let mut leak_hits = 0usize;
    let mut defense_hits = 0usize;
    for i in 0..pop.num_users() as u32 {
        let user = pop.generate_user(i);
        let truth = vec![user.truth.top_locations[0]];

        // One-time geo-IND arm.
        let mut rng = privlocad_geo::rng::seeded(9_000 + i as u64);
        let observed_laplace: Vec<_> =
            user.checkins.iter().map(|c| laplace.sample(c.location, &mut rng)).collect();
        let attack = DeobfuscationAttack::for_planar_laplace(&laplace, 0.05).unwrap();
        let d = rank_distances(&attack.infer_top_locations(&observed_laplace, 1), &truth);
        if matches!(d[0], Some(x) if x <= 200.0) {
            leak_hits += 1;
        }

        // Edge-PrivLocAd arm.
        let observed_edge = observed(config, 7_000, &user);
        let attack = DeobfuscationAttack::for_gaussian(&gaussian, 0.05).unwrap();
        let d = rank_distances(&attack.infer_top_locations(&observed_edge, 1), &truth);
        if matches!(d[0], Some(x) if x <= 200.0) {
            defense_hits += 1;
        }
    }
    assert!(
        leak_hits >= 6,
        "one-time geo-IND should leak most users' top-1 ({leak_hits}/8 within 200 m)"
    );
    assert_eq!(defense_hits, 0, "Edge-PrivLocAd should not leak any top-1 within 200 m");
}

#[test]
fn full_marketplace_round_trip() {
    let pop = population();
    let inventory = generate(
        &InventoryConfig { count: 300, ..InventoryConfig::default() },
        shanghai::bounding_box(),
        &shanghai::projection(),
        5,
    );
    let config = SystemConfig::builder().build().unwrap();
    let user = pop.generate_user(0);
    let mut edge = EdgeDevice::new(config, 77);
    let sink = BidSink::new();
    replay_trace(&mut edge, &user, &sink);
    let mut exchange = BidExchange::new(AdNetwork::new(inventory));

    // Exactly one bid per check-in crossed the wire and settled.
    assert_eq!(exchange.pump(&sink).unwrap(), user.checkins.len());
    assert_eq!(exchange.log().len(), user.checkins.len());
    // A 25 km-radius inventory across the city should win some auctions.
    let wins = exchange.log().wins();
    assert!(wins > 0, "no auctions won over {} requests", user.checkins.len());
    // The AOI filter at the true location only ever passes truly relevant
    // ads — bid `seq` i is check-in i.
    let radius = config.targeting_radius_m();
    let mut delivered = 0usize;
    for record in exchange.log().records() {
        let truth = user.checkins[record.request.seq as usize].location;
        for ad in filter_ads_by(exchange.network().matching(record.location()), truth, radius) {
            if let Some(loc) = ad.business_location() {
                assert!(loc.distance(truth) <= radius);
            }
            delivered += 1;
        }
    }
    assert!(delivered > 0, "filter killed every ad");
}

#[test]
fn device_ids_segregate_users_in_the_log() {
    let pop = population();
    let config = SystemConfig::builder().build().unwrap();
    let mut edge = EdgeDevice::new(config, 3);
    let sink = BidSink::new();
    let a = pop.generate_user(0);
    let b = pop.generate_user(1);
    replay_trace(&mut edge, &a, &sink);
    replay_trace(&mut edge, &b, &sink);
    let seen = observe(&sink).unwrap();
    assert_eq!(seen.devices(), vec![DeviceId::new(0), DeviceId::new(1)]);
    assert_eq!(seen.locations_of(DeviceId::new(0)).len(), a.checkins.len());
    assert_eq!(seen.locations_of(DeviceId::new(1)).len(), b.checkins.len());
}

#[test]
fn wire_format_round_trips_the_whole_log() {
    let pop = population();
    let config = SystemConfig::builder().build().unwrap();
    let user = pop.generate_user(2);
    let mut edge = EdgeDevice::new(config, 4);
    let sink = BidSink::new();
    replay_trace(&mut edge, &user, &sink);
    let bids = sink.drain();
    assert_eq!(bids.len(), user.checkins.len());
    for (seq, bid) in bids.iter().enumerate() {
        let (request, consumed) = BidRequest::decode_slice(&bid.frame).unwrap();
        assert_eq!(consumed, bid.frame.len());
        assert_eq!((request.device.id, request.seq), (DeviceId::new(2), seq as u64));
        assert_eq!(request.encode()[..], bid.frame[..]);
    }
}
