//! The edge's privacy-risk view of a user: which locations are
//! longitudinally exposed, how much budget a naive one-time mechanism
//! would have burned, and what the system recommends.
//!
//! ```sh
//! cargo run --release --example risk_dashboard
//! ```

use privlocad::{EdgeDevice, SystemConfig};
use privlocad_mobility::{PopulationConfig, SECONDS_PER_DAY};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let population = PopulationConfig::builder().num_users(1).seed(17).build();
    let user = population.generate_user(0);
    println!(
        "user with {} check-ins over 2 years, {} true top locations",
        user.checkins.len(),
        user.truth.top_locations.len()
    );

    // Feed the first profile window into the edge.
    let config = SystemConfig::builder().build()?;
    let mut edge = EdgeDevice::new(config, 3);
    let window_end = config.window_days() as i64 * SECONDS_PER_DAY;
    for c in user.checkins.iter().filter(|c| c.time.seconds() < window_end) {
        edge.report_checkin(user.user, c.location);
    }
    let fresh = edge.finalize_window(user.user);
    println!(
        "first {}-day window closed: {fresh} top location(s) obfuscated\n",
        config.window_days()
    );

    // The dashboard.
    let report = edge.risk_report(user.user).expect("user has state");
    println!(
        "window entropy: {:.2} nats ({})",
        report.entropy,
        if report.entropy < 2.0 {
            "routine-bound user — high longitudinal exposure"
        } else {
            "diverse activity"
        }
    );
    println!(
        "{:<28} {:>9} {:>16} {:>18}  recommendation",
        "location", "releases", "naive eps spent", "attacker error"
    );
    for risk in &report.locations {
        println!(
            "{:<28} {:>9} {:>16.1} {:>15.1} m  {}",
            risk.location.to_string(),
            risk.releases,
            risk.composed_epsilon,
            risk.attacker_error_m,
            risk.recommendation
        );
    }
    println!(
        "\n{} location(s) need permanent obfuscation; under Edge-PrivLocAd each \
         spends its (r, eps, delta, n) budget exactly once, ever.",
        report.flagged().len()
    );
    Ok(())
}
