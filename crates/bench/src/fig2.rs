//! Fig. 2: a user's 7-day mobility pattern — and what an observer reads
//! off it.
//!
//! The paper's Fig. 2 plots one victim's week of raw check-ins and notes
//! that "the user's top locations as well as the location semantics (e.g.,
//! home and office) and the mobility patterns are not difficult to infer".
//! This experiment makes the claim executable: it takes a synthetic
//! victim's week, runs the profiler, the semantic classifier, and the
//! mobility-pattern inference, and reports what the observer learned.

use privlocad_attack::patterns::MobilityPattern;
use privlocad_attack::semantics::{classify, SemanticConfig, TimedObservation};
use privlocad_attack::{DeobfuscationAttack, InferredLocation};
use privlocad_mobility::PopulationConfig;
use serde::{Deserialize, Serialize};

use crate::report::{pct, Table};

/// Configuration for the Fig. 2 demonstration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Master seed.
    pub seed: u64,
    /// Days of observation (paper: 7).
    pub days: i64,
    /// How many top locations to extract.
    pub top_k: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { seed: 0, days: 7, top_k: 2 }
    }
}

/// One labeled top location with its diurnal profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledTop {
    /// Rank (0 = top-1).
    pub rank: usize,
    /// The semantic label as a string ("home", "work", "other").
    pub label: String,
    /// Fraction of check-ins in night/weekend hours.
    pub night_fraction: f64,
    /// Fraction of check-ins in weekday working hours.
    pub work_fraction: f64,
    /// Check-ins supporting this location over the window.
    pub support: usize,
    /// Peak visiting hour, if any.
    pub peak_hour: Option<u8>,
}

/// Result of the demonstration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// Check-ins observed in the window.
    pub observations: usize,
    /// The labeled top locations.
    pub tops: Vec<LabeledTop>,
    /// Distinct-top-location transitions seen in the window.
    pub transitions: u32,
}

/// Runs the demonstration on a raw (unobfuscated) week of data, the
/// setting of the paper's Fig. 2.
pub fn run(config: &Config) -> Outcome {
    let population = PopulationConfig::builder().num_users(50).seed(config.seed).build();
    // Pick a user with a meaty week.
    let victim = (0..50u32)
        .map(|i| population.generate_user(i))
        .max_by_key(|u| u.checkins.iter().filter(|c| c.time.day() < config.days).count())
        .expect("population is non-empty");

    let week: Vec<TimedObservation> = victim
        .checkins
        .iter()
        .filter(|c| c.time.day() < config.days)
        .map(|c| TimedObservation { timestamp_s: c.time.seconds(), location: c.location })
        .collect();
    let points: Vec<_> = week.iter().map(|o| o.location).collect();

    // Raw data: profile directly with the paper's 50 m threshold.
    let attack = DeobfuscationAttack::new(privlocad_attack::AttackConfig::new(50.0, 100.0));
    let tops: Vec<InferredLocation> = attack.infer_top_locations(&points, config.top_k);

    let semantic = classify(&week, &tops, &SemanticConfig::default());
    let pattern = MobilityPattern::infer(&week, &tops, 500.0);

    let labeled = semantic
        .iter()
        .map(|s| LabeledTop {
            rank: s.rank,
            label: s.label.to_string(),
            night_fraction: s.night_fraction,
            work_fraction: s.work_fraction,
            support: s.support,
            peak_hour: pattern.peak_hour(s.rank),
        })
        .collect();

    Outcome { observations: week.len(), tops: labeled, transitions: pattern.total_transitions() }
}

impl Outcome {
    /// Renders the paper-style summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("Fig. 2 — 7-day mobility pattern ({} check-ins)", self.observations),
            &["top", "label", "night frac", "workhour frac", "support", "peak hour"],
        );
        for top in &self.tops {
            t.push_row(vec![
                format!("top-{}", top.rank + 1),
                top.label.clone(),
                pct(top.night_fraction),
                pct(top.work_fraction),
                top.support.to_string(),
                top.peak_hour.map_or("-".into(), |h| format!("{h:02}:00")),
            ]);
        }
        t.push_row(vec![
            "transitions".into(),
            self.transitions.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn week_reveals_home_and_work() {
        let out = run(&Config::default());
        assert!(out.observations > 20, "thin week: {}", out.observations);
        assert_eq!(out.tops.len(), 2);
        // The top-1 location of our diurnal generator is the home.
        assert_eq!(out.tops[0].label, "home");
        // Rank-2 is the workplace, visited in working hours.
        assert_eq!(out.tops[1].label, "work");
        assert!(out.tops[0].night_fraction > 0.6);
        assert!(out.tops[1].work_fraction > 0.6);
    }

    #[test]
    fn commuting_produces_transitions() {
        let out = run(&Config::default());
        assert!(out.transitions > 0);
    }

    #[test]
    fn table_lists_tops_plus_transitions_row() {
        let out = run(&Config { seed: 3, ..Config::default() });
        assert_eq!(out.table().len(), out.tops.len() + 1);
    }
}
