//! Integration: the location-management module's periodic window
//! recomputation adapts to users changing their top locations — the very
//! reason the paper recomputes the η-frequent set "since users will
//! possibly (although not frequently) change their top locations".

use privlocad::replay::{observe, replay_trace};
use privlocad::{EdgeDevice, SystemConfig};
use privlocad_attack::DeobfuscationAttack;
use privlocad_mechanisms::NFoldGaussian;
use privlocad_mobility::{PopulationConfig, UserTrace};
use privlocad_openrtb::{BidSink, DeviceId};

/// Finds a user who moves home mid-study with decent mass on both homes.
fn relocated_user() -> UserTrace {
    let population = PopulationConfig::builder()
        .num_users(60)
        .seed(2024)
        .relocation_probability(1.0)
        .checkin_log_normal(6.2, 0.3)
        .build();
    for i in 0..60u32 {
        let u = population.generate_user(i);
        if let Some(rel) = u.truth.relocation {
            let old = u
                .checkins
                .iter()
                .filter(|c| c.location.distance(rel.old_home) < 100.0)
                .count();
            let new = u
                .checkins
                .iter()
                .filter(|c| c.location.distance(rel.new_home) < 100.0)
                .count();
            if old >= 100 && new >= 100 {
                return u;
            }
        }
    }
    panic!("no suitable relocated user in the population");
}

/// Replays `user` on a fresh device over `master`; returns the device and
/// what the attacker observed, in request order.
fn replay(user: &UserTrace, master: u64) -> (EdgeDevice, Vec<privlocad_geo::Point>) {
    let mut edge = EdgeDevice::new(SystemConfig::builder().build().unwrap(), master);
    let sink = BidSink::new();
    replay_trace(&mut edge, user, &sink);
    let device = DeviceId::new(u64::from(user.user.raw()));
    let observed = observe(&sink).unwrap().locations_of(device).to_vec();
    (edge, observed)
}

#[test]
fn window_recomputation_protects_the_new_home() {
    let user = relocated_user();
    let rel = user.truth.relocation.unwrap();
    let (edge, observed) = replay(&user, 9);

    // The *current* top set tracks the move: the new home is protected by
    // permanent candidates after later windows close. (The old home's
    // candidate set stays in the table — permanence — but it is no longer
    // a current top location.)
    assert!(
        edge.candidates(user.user, rel.new_home).is_some(),
        "the system failed to adapt to the relocation"
    );

    // Permanence held in *both* eras: within each era, reported locations
    // repeat exactly (candidate reuse) instead of being fresh noise. Bid
    // `seq` i is check-in i, which dates it.
    let day_secs = 86_400;
    let mut before = std::collections::HashMap::new();
    let mut after = std::collections::HashMap::new();
    assert_eq!(observed.len(), user.checkins.len());
    for (reported, checkin) in observed.iter().zip(&user.checkins) {
        let key = (reported.x.to_bits(), reported.y.to_bits());
        if checkin.time.seconds() < rel.day * day_secs {
            *before.entry(key).or_insert(0usize) += 1;
        } else {
            *after.entry(key).or_insert(0usize) += 1;
        }
    }
    let max_before = before.values().copied().max().unwrap_or(0);
    let max_after = after.values().copied().max().unwrap_or(0);
    assert!(max_before > 5, "no candidate reuse before the move: {max_before}");
    assert!(max_after > 5, "no candidate reuse after the move: {max_after}");
}

#[test]
fn both_homes_stay_hidden_from_the_longitudinal_attacker() {
    let user = relocated_user();
    let rel = user.truth.relocation.unwrap();
    let config = SystemConfig::builder().build().unwrap();
    let (_, observed) = replay(&user, 10);

    let mech = NFoldGaussian::new(config.geo_ind());
    let attack = DeobfuscationAttack::for_gaussian(&mech, 0.05).unwrap();
    let inferred = attack.infer_top_locations(&observed, 3);
    for inf in &inferred {
        assert!(
            inf.location.distance(rel.old_home) > 200.0,
            "old home leaked within 200 m"
        );
        assert!(
            inf.location.distance(rel.new_home) > 200.0,
            "new home leaked within 200 m"
        );
    }
}
