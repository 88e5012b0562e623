use privlocad_geo::Point;
use serde::{Deserialize, Serialize};

use crate::connectivity_clusters;

/// One location/frequency pair of a user's location profile (Equation 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileEntry {
    /// The location coordinate — the centroid of the check-ins that the
    /// profiler inferred to belong to the same place.
    pub location: Point,
    /// How many check-ins mapped to this location.
    pub frequency: usize,
}

/// A user's location profile `P = {(l₁, f₁), …, (l_M, f_M)}` (Equation 2),
/// ordered by decreasing frequency.
///
/// Both sides of the paper use this structure: the longitudinal attacker
/// builds it from *observed* (possibly obfuscated) check-ins to find top
/// locations, and the Edge-PrivLocAd location-management module builds it
/// from *true* check-ins to decide which locations need permanent
/// obfuscation.
///
/// # Examples
///
/// ```
/// use privlocad_attack::LocationProfile;
/// use privlocad_geo::Point;
///
/// let mut checkins = vec![Point::new(0.0, 0.0); 70];
/// checkins.extend(vec![Point::new(9_000.0, 0.0); 30]);
/// let profile = LocationProfile::from_checkins(&checkins, 50.0);
/// assert_eq!(profile.len(), 2);
/// assert_eq!(profile.entries()[0].frequency, 70);
/// assert!(profile.entropy() < 2.0); // a routine-bound user (cf. Fig. 3)
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LocationProfile {
    entries: Vec<ProfileEntry>,
    total: usize,
}

impl LocationProfile {
    /// Builds a profile by connectivity-clustering `checkins` at threshold
    /// `theta` meters (the paper uses 50 m) and taking each cluster's
    /// centroid and size.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not positive and finite.
    pub fn from_checkins(checkins: &[Point], theta: f64) -> Self {
        let clusters = connectivity_clusters(checkins, theta);
        let entries: Vec<ProfileEntry> = clusters
            .iter()
            .map(|c| ProfileEntry {
                // lint:allow(panic-hygiene): provably infallible — connectivity_clusters never emits an empty cluster
                location: c.centroid(checkins).expect("clusters are non-empty"),
                frequency: c.len(),
            })
            .collect();
        LocationProfile { entries, total: checkins.len() }
    }

    /// Builds a profile directly from known location/frequency pairs,
    /// sorting by decreasing frequency.
    ///
    /// Used by the Edge-PrivLocAd location-management module when the edge
    /// device already knows which place each check-in belongs to.
    // lint:allow(dead-pub): integration-test hook: the attack and core proptests build profiles from entries with it
    pub fn from_entries<I: IntoIterator<Item = ProfileEntry>>(entries: I) -> Self {
        let mut entries: Vec<ProfileEntry> = entries.into_iter().collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.frequency));
        let total = entries.iter().map(|e| e.frequency).sum();
        LocationProfile { entries, total }
    }

    /// Rebuilds a profile from entries already in their recorded order,
    /// preserving that order exactly — the checkpoint-restore counterpart
    /// of [`LocationProfile::from_entries`], which re-sorts. A restored
    /// profile must compare equal to the one that was serialized, and
    /// `from_checkins` emits entries in cluster order, not necessarily
    /// frequency order.
    pub fn from_ordered_entries<I: IntoIterator<Item = ProfileEntry>>(entries: I) -> Self {
        let entries: Vec<ProfileEntry> = entries.into_iter().collect();
        let total = entries.iter().map(|e| e.frequency).sum();
        LocationProfile { entries, total }
    }

    /// The profile entries, ordered by decreasing frequency.
    pub fn entries(&self) -> &[ProfileEntry] {
        &self.entries
    }

    /// Number of distinct locations `M`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the profile has no locations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of check-ins (`sum` in Equation 3).
    pub fn total_checkins(&self) -> usize {
        self.total
    }

    /// The rank-`k` location (0-based: `top(0)` is the top-1 location).
    pub fn top(&self, k: usize) -> Option<&ProfileEntry> {
        self.entries.get(k)
    }

    /// Location entropy (Equation 3), in nats:
    /// `Σᵢ (fᵢ/sum)·ln(sum/fᵢ)`.
    ///
    /// Low entropy means the user's activity is dominated by a few top
    /// locations; the paper reports 88.8 % of users below 2.
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum = self.total as f64;
        self.entries
            .iter()
            .filter(|e| e.frequency > 0)
            .map(|e| {
                let f = e.frequency as f64;
                (f / sum) * (sum / f).ln()
            })
            .sum()
    }

    /// Iterates over the entries in decreasing-frequency order.
    pub fn iter(&self) -> std::slice::Iter<'_, ProfileEntry> {
        self.entries.iter()
    }

    /// Merges another profile into this one, re-clustering entries whose
    /// locations are within `theta` meters.
    ///
    /// This supports the paper's multi-edge scenario (Section V-B): each
    /// edge device holds a partial profile, and the η-frequent location set
    /// is computed from the merged result. (The paper delegates
    /// confidentiality of this merge to an MPC protocol it treats as
    /// orthogonal; we merge in the clear.)
    pub fn merge(&self, other: &LocationProfile, theta: f64) -> LocationProfile {
        let mut merged: Vec<ProfileEntry> = Vec::new();
        for e in self.entries.iter().chain(other.entries.iter()) {
            match merged.iter_mut().find(|m| m.location.distance(e.location) <= theta) {
                Some(m) => {
                    // Frequency-weighted centroid keeps the location stable.
                    let fm = m.frequency as f64;
                    let fe = e.frequency as f64;
                    m.location = (m.location * fm + e.location * fe) / (fm + fe);
                    m.frequency += e.frequency;
                }
                None => merged.push(*e),
            }
        }
        LocationProfile::from_entries(merged)
    }
}

impl<'a> IntoIterator for &'a LocationProfile {
    type Item = &'a ProfileEntry;
    type IntoIter = std::slice::Iter<'a, ProfileEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_geo::rng::{gaussian_2d, seeded};

    fn blob(center: Point, n: usize, spread: f64, seed: u64) -> Vec<Point> {
        let mut rng = seeded(seed);
        (0..n).map(|_| center + gaussian_2d(&mut rng, spread)).collect()
    }

    #[test]
    fn profile_orders_by_frequency() {
        let mut pts = blob(Point::new(0.0, 0.0), 50, 5.0, 1);
        pts.extend(blob(Point::new(10_000.0, 0.0), 200, 5.0, 2));
        pts.extend(blob(Point::new(0.0, 10_000.0), 100, 5.0, 3));
        let p = LocationProfile::from_checkins(&pts, 50.0);
        assert_eq!(p.len(), 3);
        assert_eq!(p.entries()[0].frequency, 200);
        assert_eq!(p.entries()[1].frequency, 100);
        assert_eq!(p.entries()[2].frequency, 50);
        assert!(p.top(0).unwrap().location.distance(Point::new(10_000.0, 0.0)) < 10.0);
        assert_eq!(p.total_checkins(), 350);
    }

    #[test]
    fn empty_profile() {
        let p = LocationProfile::from_checkins(&[], 50.0);
        assert!(p.is_empty());
        assert_eq!(p.entropy(), 0.0);
        assert_eq!(p.top(0), None);
        assert_eq!(p.total_checkins(), 0);
    }

    #[test]
    fn single_location_has_zero_entropy() {
        let p = LocationProfile::from_checkins(&vec![Point::ORIGIN; 100], 50.0);
        assert_eq!(p.len(), 1);
        assert!(p.entropy().abs() < 1e-12);
    }

    #[test]
    fn uniform_over_m_locations_has_entropy_ln_m() {
        let entries = (0..8).map(|i| ProfileEntry {
            location: Point::new(i as f64 * 10_000.0, 0.0),
            frequency: 25,
        });
        let p = LocationProfile::from_entries(entries);
        assert!((p.entropy() - 8f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn routine_user_entropy_below_two() {
        // 70% home, 25% office, 5% elsewhere — the typical Fig. 3 user.
        let p = LocationProfile::from_entries([
            ProfileEntry { location: Point::new(0.0, 0.0), frequency: 700 },
            ProfileEntry { location: Point::new(8_000.0, 0.0), frequency: 250 },
            ProfileEntry { location: Point::new(0.0, 8_000.0), frequency: 50 },
        ]);
        assert!(p.entropy() < 2.0);
    }

    #[test]
    fn from_entries_sorts() {
        let p = LocationProfile::from_entries([
            ProfileEntry { location: Point::new(0.0, 0.0), frequency: 5 },
            ProfileEntry { location: Point::new(1.0, 0.0), frequency: 50 },
        ]);
        assert_eq!(p.entries()[0].frequency, 50);
    }

    #[test]
    fn merge_combines_nearby_locations() {
        let a = LocationProfile::from_entries([
            ProfileEntry { location: Point::new(0.0, 0.0), frequency: 30 },
            ProfileEntry { location: Point::new(9_000.0, 0.0), frequency: 10 },
        ]);
        let b = LocationProfile::from_entries([ProfileEntry {
            location: Point::new(20.0, 0.0),
            frequency: 50,
        }]);
        let m = a.merge(&b, 50.0);
        assert_eq!(m.len(), 2);
        assert_eq!(m.entries()[0].frequency, 80);
        assert_eq!(m.total_checkins(), 90);
        // Weighted centroid: (0·30 + 20·50)/80 = 12.5.
        assert!((m.entries()[0].location.x - 12.5).abs() < 1e-9);
    }

    #[test]
    fn merge_keeps_distant_locations_separate() {
        let a = LocationProfile::from_entries([ProfileEntry {
            location: Point::new(0.0, 0.0),
            frequency: 5,
        }]);
        let b = LocationProfile::from_entries([ProfileEntry {
            location: Point::new(500.0, 0.0),
            frequency: 7,
        }]);
        let m = a.merge(&b, 50.0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iteration_yields_sorted_entries() {
        let p = LocationProfile::from_entries([
            ProfileEntry { location: Point::new(0.0, 0.0), frequency: 1 },
            ProfileEntry { location: Point::new(1.0, 0.0), frequency: 3 },
            ProfileEntry { location: Point::new(2.0, 0.0), frequency: 2 },
        ]);
        let freqs: Vec<usize> = p.iter().map(|e| e.frequency).collect();
        assert_eq!(freqs, vec![3, 2, 1]);
        let freqs2: Vec<usize> = (&p).into_iter().map(|e| e.frequency).collect();
        assert_eq!(freqs2, freqs);
    }

    #[test]
    fn more_checkins_dont_raise_entropy_for_routine_users() {
        // Mimics Fig. 3's negative correlation: heavy users concentrate
        // activity on the same top locations, so entropy stays low.
        let mut light = blob(Point::new(0.0, 0.0), 10, 5.0, 10);
        light.extend(blob(Point::new(10_000.0, 0.0), 5, 5.0, 11));
        light.extend(blob(Point::new(20_000.0, 0.0), 5, 5.0, 12));
        let heavy_top = blob(Point::new(0.0, 0.0), 900, 5.0, 13);
        let mut heavy = heavy_top;
        heavy.extend(blob(Point::new(10_000.0, 0.0), 80, 5.0, 14));
        heavy.extend(blob(Point::new(20_000.0, 0.0), 20, 5.0, 15));
        let e_light = LocationProfile::from_checkins(&light, 50.0).entropy();
        let e_heavy = LocationProfile::from_checkins(&heavy, 50.0).entropy();
        assert!(e_heavy < e_light, "heavy {e_heavy} light {e_light}");
    }
}
