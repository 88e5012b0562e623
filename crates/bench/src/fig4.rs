//! Fig. 4: case study of the de-obfuscation attack over growing
//! observation windows.
//!
//! The paper follows one victim with 1,969 check-ins over a year, each
//! independently obfuscated by the planar Laplace mechanism, and shows the
//! inferred top-1 location converging on the true home: ~200 m error from
//! one week of data, <50 m from the full year.

use privlocad_attack::DeobfuscationAttack;
use privlocad_geo::rng::seeded;
use privlocad_geo::Point;
use privlocad_mechanisms::{PlanarLaplace, PlanarLaplaceParams};
use privlocad_mobility::{PopulationConfig, UserTrace};
use serde::{Deserialize, Serialize};

use crate::report::{meters, Table};

/// Configuration for the Fig. 4 case study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Master seed.
    pub seed: u64,
    /// Privacy level `l` of the one-time mechanism (paper: ln 4).
    pub level: f64,
    /// Privacy radius in meters (paper: 200).
    pub radius_m: f64,
    /// Attack connectivity threshold θ in meters (paper: 50).
    pub theta_m: f64,
    /// Confidence for the trimming radius r_α (paper: α = 0.05).
    pub alpha: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config { seed: 0, level: 4f64.ln(), radius_m: 200.0, theta_m: 50.0, alpha: 0.05 }
    }
}

/// One observation-window measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowResult {
    /// Human label ("one week" etc).
    pub label: String,
    /// Days of observation.
    pub days: i64,
    /// Obfuscated check-ins available to the attacker.
    pub observations: usize,
    /// Distance between the inferred and true top-1 location (meters).
    pub inference_error_m: f64,
}

/// Result of the case study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// The victim's total year-one check-ins.
    pub total_checkins: usize,
    /// Per-window attack accuracy.
    pub windows: Vec<WindowResult>,
}

/// Picks a victim similar to the paper's (≈ 2,000 check-ins in year one).
fn pick_victim(seed: u64) -> UserTrace {
    let population = PopulationConfig::builder().num_users(400).seed(seed).build();
    let mut best: Option<(usize, UserTrace)> = None;
    for i in 0..400u32 {
        let u = population.generate_user(i);
        let year_one = u.checkins.iter().filter(|c| c.time.day() < 365).count();
        let gap = year_one.abs_diff(1_969);
        if best.as_ref().is_none_or(|(g, _)| gap < *g) {
            best = Some((gap, u));
        }
    }
    best.expect("population is non-empty").1
}

/// Runs the case study.
pub fn run(config: &Config) -> Outcome {
    let victim = pick_victim(config.seed);
    let mech = PlanarLaplace::new(
        PlanarLaplaceParams::from_level(config.level, config.radius_m)
            .expect("valid case-study parameters"),
    );
    let mut rng = seeded(config.seed.wrapping_add(1));

    // One-time geo-IND: every check-in independently obfuscated.
    let year: Vec<(i64, Point)> = victim
        .checkins
        .iter()
        .filter(|c| c.time.day() < 365)
        .map(|c| (c.time.day(), mech.sample(c.location, &mut rng)))
        .collect();

    let r_alpha = mech.confidence_radius(config.alpha).expect("alpha validated");
    let attack =
        DeobfuscationAttack::new(privlocad_attack::AttackConfig::new(config.theta_m, r_alpha));
    let home = victim.truth.top_locations[0];

    let windows = [("one week", 7i64), ("one month", 30), ("full year", 365)]
        .iter()
        .map(|&(label, days)| {
            let observed: Vec<Point> =
                year.iter().filter(|(d, _)| *d < days).map(|(_, p)| *p).collect();
            let inferred = attack.infer_top_locations(&observed, 1);
            let err = inferred.first().map_or(f64::INFINITY, |i| i.location.distance(home));
            WindowResult {
                label: label.to_string(),
                days,
                observations: observed.len(),
                inference_error_m: err,
            }
        })
        .collect();

    Outcome { total_checkins: year.len(), windows }
}

impl Outcome {
    /// Renders the paper-style summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("Fig. 4 — de-obfuscation case study ({} check-ins/yr)", self.total_checkins),
            &["window", "observations", "top-1 inference error"],
        );
        for w in &self.windows {
            t.push_row(vec![
                w.label.clone(),
                w.observations.to_string(),
                meters(w.inference_error_m),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_improves_with_longer_windows() {
        let out = run(&Config::default());
        assert_eq!(out.windows.len(), 3);
        let week = out.windows[0].inference_error_m;
        let year = out.windows[2].inference_error_m;
        assert!(year < week, "year error {year} should beat week error {week}");
        // The paper's full-year figure: tens of meters.
        assert!(year < 100.0, "full-year error {year} m");
        assert!(out.windows[2].observations > out.windows[0].observations);
    }

    #[test]
    fn victim_resembles_papers_case() {
        let out = run(&Config::default());
        assert!(
            (1_000..=3_500).contains(&out.total_checkins),
            "victim has {} check-ins",
            out.total_checkins
        );
    }

    #[test]
    fn table_has_three_windows() {
        let out = run(&Config { seed: 5, ..Config::default() });
        assert_eq!(out.table().len(), 3);
    }
}
