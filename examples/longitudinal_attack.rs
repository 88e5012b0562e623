//! The longitudinal location exposure attack, end to end: a year of
//! one-time geo-IND reports leaks the victim's home to within meters,
//! while the same year behind Edge-PrivLocAd stays kilometers off.
//!
//! ```sh
//! cargo run --release --example longitudinal_attack
//! ```

use privlocad::replay::{observe, replay_trace};
use privlocad::{EdgeDevice, SystemConfig};
use privlocad_attack::DeobfuscationAttack;
use privlocad_geo::rng::seeded;
use privlocad_mechanisms::{NFoldGaussian, PlanarLaplace, PlanarLaplaceParams};
use privlocad_mobility::PopulationConfig;
use privlocad_openrtb::{BidSink, DeviceId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let population = PopulationConfig::builder().num_users(1).seed(11).build();
    let victim = population.generate_user(0);
    let home = victim.truth.top_locations[0];
    println!(
        "victim: {} check-ins over 2 years, top-1 share {:.0}%",
        victim.checkins.len(),
        100.0 * victim.truth.shares[0]
    );

    // --- Arm 1: one-time geo-IND (planar Laplace, l = ln 4 at 200 m) ---
    let mech = PlanarLaplace::new(PlanarLaplaceParams::from_level(4f64.ln(), 200.0)?);
    let mut rng = seeded(1);
    let observed: Vec<_> =
        victim.checkins.iter().map(|c| mech.sample(c.location, &mut rng)).collect();
    let attack = DeobfuscationAttack::for_planar_laplace(&mech, 0.05)?;
    let inferred = attack.infer_top_locations(&observed, 2);
    println!("\none-time geo-IND (every report freshly obfuscated):");
    for i in &inferred {
        let truth = victim.truth.top_locations[i.rank];
        println!(
            "  inferred top-{} at {} — {:.0} m from the real place ({} supporting reports)",
            i.rank + 1,
            i.location,
            i.location.distance(truth),
            i.support
        );
    }

    // --- Arm 2: the same victim behind Edge-PrivLocAd ---
    // The attacker reads the bid requests the edge put on the wire.
    let config = SystemConfig::builder().build()?;
    let mut edge = EdgeDevice::new(config, 2);
    let sink = BidSink::new();
    replay_trace(&mut edge, &victim, &sink);
    let seen = observe(&sink)?;
    let observed = seen.locations_of(DeviceId::new(u64::from(victim.user.raw())));
    let gaussian = NFoldGaussian::new(config.geo_ind());
    let attack = DeobfuscationAttack::for_gaussian(&gaussian, 0.05)?;
    let inferred = attack.infer_top_locations(observed, 2);
    println!("\nEdge-PrivLocAd (permanent 10-fold Gaussian candidates):");
    for i in &inferred {
        let truth = victim.truth.top_locations[i.rank];
        println!(
            "  inferred top-{} at {} — {:.0} m from the real place",
            i.rank + 1,
            i.location,
            i.location.distance(truth)
        );
    }
    println!(
        "\nthe defense keeps the attacker {:.1} km away from the home the \
         one-time mechanism leaked",
        inferred[0].location.distance(home) / 1_000.0
    );
    Ok(())
}
