//! Multiple edge devices, one user: partial profiles merged into the
//! η-frequent location set (the multi-edge scenario of Section V-B).
//!
//! A commuter checks in at home (covered by edge A) and at work (covered
//! by edge B). Neither edge alone sees the full profile; merging their
//! partial profiles recovers both top locations, which are then obfuscated
//! once and shared as the user's permanent candidates.
//!
//! ```sh
//! cargo run --release --example edge_fleet
//! ```

use privlocad::{frequent_location_set, EdgeFleet, EtaThreshold, ObfuscationModule, SystemConfig};
use privlocad_attack::LocationProfile;
use privlocad_geo::rng::{gaussian_2d, seeded};
use privlocad_geo::Point;
use privlocad_mechanisms::{GeoIndParams, NFoldGaussian};
use privlocad_mobility::UserId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let home = Point::new(0.0, 0.0);
    let work = Point::new(12_000.0, 3_000.0);
    let mut rng = seeded(21);

    // Each edge profiles only the check-ins it serves.
    let near_home: Vec<Point> = (0..70).map(|_| home + gaussian_2d(&mut rng, 15.0)).collect();
    let near_work: Vec<Point> = (0..45).map(|_| work + gaussian_2d(&mut rng, 15.0)).collect();
    let edge_a_profile = LocationProfile::from_checkins(&near_home, 50.0);
    let edge_b_profile = LocationProfile::from_checkins(&near_work, 50.0);
    println!(
        "edge A sees {} check-ins at {} location(s); edge B sees {} at {}",
        edge_a_profile.total_checkins(),
        edge_a_profile.len(),
        edge_b_profile.total_checkins(),
        edge_b_profile.len()
    );

    // Merge the partial profiles (the paper delegates confidentiality of
    // this step to an out-of-scope MPC protocol; we merge in the clear).
    let merged = edge_a_profile.merge(&edge_b_profile, 50.0);
    println!(
        "merged profile: {} locations over {} check-ins, entropy {:.2} nats",
        merged.len(),
        merged.total_checkins(),
        merged.entropy()
    );

    // The η-frequent location set over the merged profile covers both
    // routine places.
    let tops = frequent_location_set(&merged, EtaThreshold::Fraction(0.9));
    println!("eta-frequent set (eta = 90%): {} locations", tops.len());
    for (i, t) in tops.iter().enumerate() {
        println!("  top-{}: {} ({} check-ins)", i + 1, t.location, t.frequency);
    }

    // One permanent obfuscation for each — regardless of which edge later
    // serves the request.
    let mechanism = NFoldGaussian::new(GeoIndParams::new(500.0, 1.0, 0.01, 10)?);
    let match_radius_m = 200.0;
    let mut module = ObfuscationModule::default();
    let top_points: Vec<Point> = tops.iter().map(|t| t.location).collect();
    let fresh = module.obfuscate_top_set(&mechanism, match_radius_m, &top_points, &mut rng);
    println!(
        "\nobfuscated {fresh} top location(s); table now protects {} place(s)",
        module.table().len()
    );
    for &t in &top_points {
        let set = module.table().get(t, match_radius_m).expect("just obfuscated");
        let cands: Vec<Point> = set.points().collect();
        let mean = privlocad_geo::centroid(&cands).expect("non-empty");
        println!(
            "  {} -> {} permanent candidates, centroid {:.0} m away",
            t,
            cands.len(),
            mean.distance(t)
        );
    }

    // The same flow, packaged: EdgeFleet routes check-ins to the nearest
    // edge, merges partial profiles at window end, and installs one
    // consistent candidate set fleet-wide.
    println!("\n--- EdgeFleet (the packaged multi-edge flow) ---");
    let mut fleet = EdgeFleet::new(
        SystemConfig::builder().build()?,
        vec![home, work], // one edge near each routine place
        42,
    );
    let user = UserId::new(7);
    for p in near_home.iter().chain(near_work.iter()) {
        fleet.report_checkin(user, *p);
    }
    let fresh = fleet.finalize_user_window(user);
    println!("fleet window closed: {fresh} top location(s) obfuscated once, fleet-wide");
    let from_a = fleet.edge(0).candidates(user, home).expect("edge A protects home");
    let from_b = fleet.edge(1).candidates(user, home).expect("edge B protects home");
    assert_eq!(from_a, from_b);
    println!(
        "edge A and edge B answer with the SAME {} candidates for home — \
         no edge ever re-releases",
        from_a.len()
    );
    let reported = fleet.reported_location(user, work);
    println!("an ad request at work reports {reported} via the nearest edge");
    Ok(())
}
