//! Mobility-pattern inference over recovered top locations.
//!
//! Beyond static top locations, a longitudinal observer reconstructs *how*
//! the victim moves between them (Fig. 2 of the paper shows a 7-day
//! commute pattern). Given the timestamped observation stream and the
//! inferred top locations, this module builds per-location hourly visit
//! histograms and the first-order transition matrix between consecutive
//! top-location visits.

use serde::{Deserialize, Serialize};

use crate::semantics::TimedObservation;
use crate::InferredLocation;

/// The inferred mobility pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobilityPattern {
    /// `hourly[i][h]`: observations of top-i during hour-of-day `h`.
    pub hourly: Vec<[u32; 24]>,
    /// `transitions[i][j]`: consecutive-visit moves from top-i to top-j
    /// (repeat visits to the same location are collapsed first).
    pub transitions: Vec<Vec<u32>>,
    /// Observations assigned to each top location.
    pub support: Vec<usize>,
    /// Observations not within the assignment radius of any top.
    pub unassigned: usize,
}

impl MobilityPattern {
    /// Infers the pattern from time-ordered observations.
    ///
    /// Observations are assigned to the nearest top within
    /// `assign_radius_m`; others only contribute to `unassigned`.
    ///
    /// # Panics
    ///
    /// Panics if `assign_radius_m` is not positive and finite.
    pub fn infer(
        observations: &[TimedObservation],
        tops: &[InferredLocation],
        assign_radius_m: f64,
    ) -> MobilityPattern {
        assert!(
            assign_radius_m.is_finite() && assign_radius_m > 0.0,
            "assignment radius must be positive and finite"
        );
        let radius_sq = assign_radius_m * assign_radius_m;
        let mut sorted: Vec<&TimedObservation> = observations.iter().collect();
        sorted.sort_by_key(|o| o.timestamp_s);

        let mut hourly = vec![[0u32; 24]; tops.len()];
        let mut transitions = vec![vec![0u32; tops.len()]; tops.len()];
        let mut support = vec![0usize; tops.len()];
        let mut unassigned = 0usize;
        let mut previous: Option<usize> = None;

        for obs in sorted {
            let nearest = tops
                .iter()
                .enumerate()
                .map(|(i, t)| (i, t.location.distance_sq(obs.location)))
                .filter(|&(_, d)| d <= radius_sq)
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i);
            match nearest {
                Some(idx) => {
                    support[idx] += 1;
                    let hour = (obs.timestamp_s.rem_euclid(86_400) / 3_600) as usize;
                    hourly[idx][hour] += 1;
                    if let Some(prev) = previous {
                        if prev != idx {
                            transitions[prev][idx] += 1;
                        }
                    }
                    previous = Some(idx);
                }
                None => unassigned += 1,
            }
        }
        MobilityPattern { hourly, transitions, support, unassigned }
    }

    /// The busiest hour of top-`i`, or `None` without observations.
    pub fn peak_hour(&self, i: usize) -> Option<u8> {
        let hist = self.hourly.get(i)?;
        if hist.iter().all(|&c| c == 0) {
            return None;
        }
        hist.iter().enumerate().max_by_key(|(_, &c)| c).map(|(h, _)| h as u8)
    }

    /// Total observed transitions between distinct top locations.
    pub fn total_transitions(&self) -> u32 {
        self.transitions.iter().flatten().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_geo::Point;

    fn top(rank: usize, x: f64) -> InferredLocation {
        InferredLocation { rank, location: Point::new(x, 0.0), support: 0 }
    }

    fn obs(ts: i64, x: f64) -> TimedObservation {
        TimedObservation { timestamp_s: ts, location: Point::new(x, 0.0) }
    }

    #[test]
    fn commute_pattern_recovered() {
        // home (x=0) nights, work (x=9000) days, 5 days.
        let mut observations = Vec::new();
        for d in 0..5i64 {
            observations.push(obs(d * 86_400 + 7 * 3_600, 0.0)); // 07:00 home
            observations.push(obs(d * 86_400 + 10 * 3_600, 9_000.0)); // 10:00 work
            observations.push(obs(d * 86_400 + 15 * 3_600, 9_000.0)); // 15:00 work
            observations.push(obs(d * 86_400 + 21 * 3_600, 0.0)); // 21:00 home
        }
        let tops = [top(0, 0.0), top(1, 9_000.0)];
        let p = MobilityPattern::infer(&observations, &tops, 500.0);
        assert_eq!(p.support, vec![10, 10]);
        assert_eq!(p.unassigned, 0);
        // One home→work and one work→home transition per day; the
        // day-boundary home(21:00)→home(07:00) pair collapses.
        assert_eq!(p.transitions[0][1], 5);
        assert_eq!(p.transitions[1][0], 5);
        assert_eq!(p.total_transitions(), 10);
        // Peak hours land in the right part of the day.
        let home_peak = p.peak_hour(0).unwrap();
        assert!(home_peak == 7 || home_peak == 21);
        let work_peak = p.peak_hour(1).unwrap();
        assert!((10..=15).contains(&work_peak));
    }

    #[test]
    fn unsorted_input_is_sorted_internally() {
        let observations = vec![obs(3 * 3_600, 9_000.0), obs(3_600, 0.0), obs(5 * 3_600, 0.0)];
        let tops = [top(0, 0.0), top(1, 9_000.0)];
        let p = MobilityPattern::infer(&observations, &tops, 500.0);
        // Time order: home → work → home.
        assert_eq!(p.transitions[0][1], 1);
        assert_eq!(p.transitions[1][0], 1);
    }

    #[test]
    fn repeat_visits_do_not_self_transition() {
        let observations = vec![obs(0, 0.0), obs(3_600, 0.0), obs(7_200, 0.0)];
        let p = MobilityPattern::infer(&observations, &[top(0, 0.0)], 500.0);
        assert_eq!(p.total_transitions(), 0);
        assert_eq!(p.support[0], 3);
    }

    #[test]
    fn distant_observations_unassigned() {
        let observations = vec![obs(0, 50_000.0), obs(3_600, 0.0)];
        let p = MobilityPattern::infer(&observations, &[top(0, 0.0)], 500.0);
        assert_eq!(p.unassigned, 1);
        assert_eq!(p.support[0], 1);
    }

    #[test]
    fn empty_inputs() {
        let p = MobilityPattern::infer(&[], &[top(0, 0.0)], 500.0);
        assert_eq!(p.support, vec![0]);
        assert_eq!(p.peak_hour(0), None);
        let q = MobilityPattern::infer(&[obs(0, 0.0)], &[], 500.0);
        assert_eq!(q.unassigned, 1);
        assert!(q.hourly.is_empty());
    }

    #[test]
    #[should_panic(expected = "assignment radius")]
    fn rejects_bad_radius() {
        let _ = MobilityPattern::infer(&[], &[], 0.0);
    }
}
