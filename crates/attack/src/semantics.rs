//! Location-semantics inference: labeling recovered top locations as home
//! or workplace from the *timing* of the observations.
//!
//! Section III of the paper notes that once the top locations are
//! recovered, "the location semantics (e.g., home and office) and the
//! mobility patterns are not difficult to infer". This module makes that
//! concrete: check-ins at a home cluster concentrate in evenings, nights
//! and weekends, while workplace check-ins concentrate in weekday working
//! hours — exactly the diurnal structure real (and our synthetic) traces
//! carry.

use privlocad_geo::Point;
use serde::{Deserialize, Serialize};

use crate::InferredLocation;

/// One timestamped observation from the bid log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedObservation {
    /// Seconds since the observation epoch (midnight of day 0).
    pub timestamp_s: i64,
    /// Reported (obfuscated) location.
    pub location: Point,
}

/// A semantic label for a top location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SemanticLabel {
    /// Evening/night/weekend-dominated: the victim's home.
    Home,
    /// Weekday-working-hour-dominated: the victim's workplace.
    Work,
    /// No dominant diurnal signature.
    Other,
}

impl std::fmt::Display for SemanticLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SemanticLabel::Home => write!(f, "home"),
            SemanticLabel::Work => write!(f, "work"),
            SemanticLabel::Other => write!(f, "other"),
        }
    }
}

/// Configuration of the semantic classifier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SemanticConfig {
    /// Observations within this radius of a top location count toward it.
    pub assign_radius_m: f64,
    /// Weekday of day 0 (0 = Monday … 6 = Sunday). The synthetic study
    /// epoch, June 1 2019, was a Saturday (5).
    pub epoch_day_of_week: u8,
    /// Inclusive start of "night" hours (evening side), e.g. 19.
    pub night_start_hour: u8,
    /// Exclusive end of "night" hours (morning side), e.g. 9.
    pub night_end_hour: u8,
    /// Inclusive start of working hours, e.g. 9.
    pub work_start_hour: u8,
    /// Exclusive end of working hours, e.g. 19.
    pub work_end_hour: u8,
    /// Minimum fraction for a label to win.
    pub dominance_threshold: f64,
}

impl Default for SemanticConfig {
    fn default() -> Self {
        SemanticConfig {
            assign_radius_m: 500.0,
            epoch_day_of_week: 5,
            night_start_hour: 19,
            night_end_hour: 9,
            work_start_hour: 9,
            work_end_hour: 19,
            dominance_threshold: 0.6,
        }
    }
}

/// A labeled top location.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SemanticInference {
    /// The rank of the underlying inferred top location.
    pub rank: usize,
    /// The inferred coordinate.
    pub location: Point,
    /// The assigned label.
    pub label: SemanticLabel,
    /// Fraction of assigned observations in night/weekend hours.
    pub night_fraction: f64,
    /// Fraction of assigned observations in weekday working hours.
    pub work_fraction: f64,
    /// Number of observations assigned to this top location.
    pub support: usize,
}

fn hour_of(ts: i64) -> u8 {
    (ts.rem_euclid(86_400) / 3_600) as u8
}

fn weekday_of(ts: i64, epoch_dow: u8) -> u8 {
    ((ts.div_euclid(86_400) + epoch_dow as i64).rem_euclid(7)) as u8
}

/// Classifies each inferred top location by its observations' diurnal
/// signature.
///
/// Observations are assigned to the nearest top location within
/// `config.assign_radius_m`; each top's night fraction (evening/night or
/// weekend) and weekday-working-hour fraction are compared against the
/// dominance threshold.
///
/// # Examples
///
/// ```
/// use privlocad_attack::semantics::{classify, SemanticConfig, SemanticLabel, TimedObservation};
/// use privlocad_attack::InferredLocation;
/// use privlocad_geo::Point;
///
/// // Monday-night observations near the rank-0 top.
/// let obs: Vec<TimedObservation> = (0..20)
///     .map(|i| TimedObservation { timestamp_s: (2 + 7 * i) * 86_400 + 22 * 3_600, location: Point::ORIGIN })
///     .collect();
/// let tops = [InferredLocation { rank: 0, location: Point::ORIGIN, support: 20 }];
/// let labels = classify(&obs, &tops, &SemanticConfig::default());
/// assert_eq!(labels[0].label, SemanticLabel::Home);
/// ```
pub fn classify(
    observations: &[TimedObservation],
    tops: &[InferredLocation],
    config: &SemanticConfig,
) -> Vec<SemanticInference> {
    let radius_sq = config.assign_radius_m * config.assign_radius_m;
    let mut night = vec![0usize; tops.len()];
    let mut work = vec![0usize; tops.len()];
    let mut total = vec![0usize; tops.len()];

    for obs in observations {
        // Nearest top within the assignment radius.
        let nearest = tops
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.location.distance_sq(obs.location)))
            .filter(|&(_, d)| d <= radius_sq)
            .min_by(|a, b| a.1.total_cmp(&b.1));
        let Some((idx, _)) = nearest else { continue };
        total[idx] += 1;
        let hour = hour_of(obs.timestamp_s);
        let dow = weekday_of(obs.timestamp_s, config.epoch_day_of_week);
        let weekend = dow >= 5;
        let at_night = hour >= config.night_start_hour || hour < config.night_end_hour;
        if weekend || at_night {
            night[idx] += 1;
        }
        if !weekend && (config.work_start_hour..config.work_end_hour).contains(&hour) {
            work[idx] += 1;
        }
    }

    tops.iter()
        .enumerate()
        .map(|(i, t)| {
            let n = total[i].max(1) as f64;
            let night_fraction = night[i] as f64 / n;
            let work_fraction = work[i] as f64 / n;
            let label = if total[i] == 0 {
                SemanticLabel::Other
            } else if night_fraction >= config.dominance_threshold
                && night_fraction >= work_fraction
            {
                SemanticLabel::Home
            } else if work_fraction >= config.dominance_threshold {
                SemanticLabel::Work
            } else {
                SemanticLabel::Other
            };
            SemanticInference {
                rank: t.rank,
                location: t.location,
                label,
                night_fraction,
                work_fraction,
                support: total[i],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn top(rank: usize, x: f64) -> InferredLocation {
        InferredLocation { rank, location: Point::new(x, 0.0), support: 0 }
    }

    fn obs(day: i64, hour: i64, x: f64) -> TimedObservation {
        TimedObservation { timestamp_s: day * 86_400 + hour * 3_600, location: Point::new(x, 0.0) }
    }

    #[test]
    fn night_heavy_cluster_is_home() {
        // Days 2..6 are Mon–Fri under epoch_dow = 5.
        let observations: Vec<_> = (0..30).map(|i| obs(2 + (i % 5), 22, 0.0)).collect();
        let out = classify(&observations, &[top(0, 0.0)], &SemanticConfig::default());
        assert_eq!(out[0].label, SemanticLabel::Home);
        assert!(out[0].night_fraction > 0.9);
        assert_eq!(out[0].support, 30);
    }

    #[test]
    fn workhour_cluster_is_work() {
        let observations: Vec<_> = (0..30).map(|i| obs(2 + (i % 5), 10, 0.0)).collect();
        let out = classify(&observations, &[top(0, 0.0)], &SemanticConfig::default());
        assert_eq!(out[0].label, SemanticLabel::Work);
        assert!(out[0].work_fraction > 0.9);
    }

    #[test]
    fn weekend_daytime_counts_toward_home() {
        // Day 0 (Saturday) noon: weekend ⇒ night/home bucket.
        let observations: Vec<_> = (0..10).map(|_| obs(0, 12, 0.0)).collect();
        let out = classify(&observations, &[top(0, 0.0)], &SemanticConfig::default());
        assert_eq!(out[0].label, SemanticLabel::Home);
    }

    #[test]
    fn mixed_cluster_is_other() {
        let mut observations: Vec<_> = (0..10).map(|i| obs(2 + (i % 5), 10, 0.0)).collect();
        observations.extend((0..10).map(|i| obs(2 + (i % 5), 22, 0.0)));
        let out = classify(&observations, &[top(0, 0.0)], &SemanticConfig::default());
        assert_eq!(out[0].label, SemanticLabel::Other);
    }

    #[test]
    fn observations_assign_to_nearest_top_only() {
        let tops = [top(0, 0.0), top(1, 2_000.0)];
        let observations = vec![obs(2, 22, 100.0), obs(2, 10, 1_900.0), obs(2, 10, 50_000.0)];
        let out = classify(&observations, &tops, &SemanticConfig::default());
        assert_eq!(out[0].support, 1);
        assert_eq!(out[1].support, 1);
        // The far observation is dropped entirely.
        assert_eq!(out[0].support + out[1].support, 2);
    }

    #[test]
    fn empty_cluster_is_other_with_zero_support() {
        let out = classify(&[], &[top(0, 0.0)], &SemanticConfig::default());
        assert_eq!(out[0].label, SemanticLabel::Other);
        assert_eq!(out[0].support, 0);
    }

    #[test]
    fn end_to_end_on_synthetic_diurnal_data() {
        // Home cluster at x=0 visited at night, work at x=9000 during
        // weekday office hours: both labeled correctly.
        let mut observations = Vec::new();
        for week in 0..10i64 {
            for d in 2..7 {
                // Mon–Fri
                observations.push(obs(week * 7 + d, 22, 10.0));
                observations.push(obs(week * 7 + d, 11, 9_010.0));
            }
            observations.push(obs(week * 7, 14, -5.0)); // Saturday at home
        }
        let tops = [top(0, 0.0), top(1, 9_000.0)];
        let out = classify(&observations, &tops, &SemanticConfig::default());
        assert_eq!(out[0].label, SemanticLabel::Home);
        assert_eq!(out[1].label, SemanticLabel::Work);
    }

    #[test]
    fn label_display() {
        assert_eq!(SemanticLabel::Home.to_string(), "home");
        assert_eq!(SemanticLabel::Work.to_string(), "work");
        assert_eq!(SemanticLabel::Other.to_string(), "other");
    }
}
