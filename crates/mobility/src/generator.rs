use privlocad_geo::rng::{derive_seed, gaussian_2d, normal, seeded, uniform_angle};
use privlocad_geo::{BoundingBox, Point};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::shanghai;
use crate::{CheckIn, Timestamp, UserId, DAYS_IN_STUDY};

/// A mid-study home move (enabled via
/// [`PopulationConfigBuilder::relocation_probability`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Relocation {
    /// First study day at the new home.
    pub day: i64,
    /// The home location before the move (also `top_locations[0]`).
    pub old_home: Point,
    /// The home location from `day` onward.
    pub new_home: Point,
}

/// Ground truth about one synthetic user, used to score attacks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// The user's top locations, rank order (index 0 = top-1 = home).
    pub top_locations: Vec<Point>,
    /// The check-in share of each top location (same order); the remainder
    /// of the probability mass goes to nomadic one-off locations.
    pub shares: Vec<f64>,
    /// A mid-study home move, when the population is configured with a
    /// non-zero relocation probability. The paper's location-management
    /// module recomputes the η-frequent set every window precisely because
    /// "users will possibly (although not frequently) change their top
    /// locations in real life".
    pub relocation: Option<Relocation>,
}

/// One synthetic user's full 2-year trace plus ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserTrace {
    /// The user's identifier (equal to the generation index).
    pub user: UserId,
    /// Check-ins sorted by timestamp.
    pub checkins: Vec<CheckIn>,
    /// The generating ground truth.
    pub truth: GroundTruth,
}

impl UserTrace {
    /// The raw check-in locations, in timestamp order.
    pub fn locations(&self) -> Vec<Point> {
        self.checkins.iter().map(|c| c.location).collect()
    }
}

/// Configuration of the synthetic population generator.
///
/// Defaults reproduce the dataset statistics of Section VII-A; see the
/// crate docs for the calibration targets. Construct via
/// [`PopulationConfig::builder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationConfig {
    num_users: usize,
    seed: u64,
    min_checkins: usize,
    max_checkins: usize,
    log_mean: f64,
    log_sigma: f64,
    gps_sigma_m: f64,
    diverse_fraction: f64,
    relocation_probability: f64,
    hotspots: usize,
    hotspot_sigma_m: f64,
    bbox: BoundingBox,
}

impl PopulationConfig {
    /// Starts building a configuration from the paper-calibrated defaults.
    pub fn builder() -> PopulationConfigBuilder {
        PopulationConfigBuilder::default()
    }

    /// Number of users in the population.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The study-area bounding box.
    pub fn bounding_box(&self) -> BoundingBox {
        self.bbox
    }

    /// Generates the trace of user `index` deterministically: the same
    /// `(seed, index)` pair always yields the identical trace, independent
    /// of the order users are generated in.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ num_users`.
    pub fn generate_user(&self, index: u32) -> UserTrace {
        assert!(
            (index as usize) < self.num_users,
            "user index {index} out of range (population of {})",
            self.num_users
        );
        let mut rng = seeded(derive_seed(self.seed, index as u64));
        let proj = shanghai::projection();
        let inner = self.bbox.shrink(0.03).expect("default margins fit the study box");

        // 1. Check-in volume: clipped log-normal over the paper's range.
        let count = normal(&mut rng, self.log_mean, self.log_sigma)
            .exp()
            .round()
            .clamp(self.min_checkins as f64, self.max_checkins as f64) as usize;

        // 2. Routineness grows with volume (Fig. 3's negative entropy
        //    correlation): heavy users concentrate on their top locations.
        //    A minority of "diverse" users (couriers, field workers, …)
        //    spread activity over many places — they form the paper's
        //    11.2 % tail above entropy 2.
        let t = ((count as f64).ln() - (self.min_checkins as f64).ln())
            / ((self.max_checkins as f64).ln() - (self.min_checkins as f64).ln());
        let diverse = rng.gen::<f64>() < self.diverse_fraction;
        let (nomadic_share, num_tops, decay, top1_base) = if diverse {
            (
                (0.22 + 0.13 * rng.gen::<f64>()).min(0.35),
                rng.gen_range(4..=6usize),
                0.8f64,
                0.28 + 0.10 * rng.gen::<f64>(),
            )
        } else {
            (
                (0.16 * (1.0 - t) + 0.03).clamp(0.02, 0.20),
                rng.gen_range(2..=6usize),
                0.45f64,
                0.40 + 0.38 * t + normal(&mut rng, 0.0, 0.07),
            )
        };
        // Top-1 must dominate every other top location. The runner-up
        // receives rest/weight_sum of the non-nomadic mass, so requiring
        // top1 ≥ (1 − nomadic)/(1 + weight_sum) keeps the ranks ordered
        // for any decay profile.
        let weight_sum: f64 = (0..num_tops - 1).map(|i| decay.powi(i as i32)).sum();
        let top1_floor = (1.0 - nomadic_share) / (1.0 + weight_sum) + 1e-9;
        let top1_share = top1_base.clamp(top1_floor, 0.92).min(1.0 - nomadic_share);
        // Homes either spread uniformly over the study area or cluster
        // around urban hotspots (population density is far from uniform in
        // a real city; hotspot centers are derived deterministically from
        // the population seed so all users share them).
        let home = if self.hotspots == 0 {
            proj.to_local(inner.sample_uniform(&mut rng))
        } else {
            let mut hotspot_rng = seeded(derive_seed(self.seed, u64::MAX));
            let centers: Vec<Point> = (0..self.hotspots)
                .map(|_| proj.to_local(inner.sample_uniform(&mut hotspot_rng)))
                .collect();
            loop {
                let center = centers[rng.gen_range(0..centers.len())];
                let candidate = center + gaussian_2d(&mut rng, self.hotspot_sigma_m);
                if proj.to_geo(candidate).map(|g| inner.contains(g)).unwrap_or(false) {
                    break candidate;
                }
            }
        };
        let mut tops = vec![home];
        while tops.len() < num_tops {
            let dist = rng.gen_range(2_000.0..15_000.0);
            let candidate = home.offset_polar(dist, uniform_angle(&mut rng));
            let separated = tops.iter().all(|t| t.distance(candidate) >= 2_000.0);
            match proj.to_geo(candidate) {
                Ok(g) if inner.contains(g) && separated => tops.push(candidate),
                _ => continue,
            }
        }

        // 4. Shares: top-1 fixed, the rest geometric decay over ranks 2..M.
        let rest = 1.0 - top1_share - nomadic_share;
        let mut shares = vec![top1_share];
        shares.extend((0..num_tops - 1).map(|i| rest * decay.powi(i as i32) / weight_sum));

        // 5. Integer counts per top location (largest-remainder rounding).
        let counts: Vec<usize> = shares.iter().map(|s| (s * count as f64) as usize).collect();
        let assigned: usize = counts.iter().sum();
        let nomadic_count = count - assigned;

        // 6. Nomadic one-off locations: 1–3 visits each, within 20 km of home.
        let mut checkins: Vec<CheckIn> = Vec::with_capacity(count);
        let user = UserId::new(index);
        let mut remaining = nomadic_count;
        while remaining > 0 {
            let visits = rng.gen_range(1..=3usize).min(remaining);
            let spot = loop {
                let d = rng.gen_range(500.0..20_000.0);
                let p = home.offset_polar(d, uniform_angle(&mut rng));
                if proj.to_geo(p).map(|g| inner.contains(g)).unwrap_or(false) {
                    break p;
                }
            };
            for _ in 0..visits {
                checkins.push(self.checkin_at(user, spot, LocationKind::Nomadic, &mut rng));
            }
            remaining -= visits;
        }

        // 7. Top-location check-ins with diurnal structure and GPS jitter.
        for (rank, (&top, &n)) in tops.iter().zip(counts.iter()).enumerate() {
            let kind = match rank {
                0 => LocationKind::Home,
                1 => LocationKind::Work,
                _ => LocationKind::OtherTop,
            };
            for _ in 0..n {
                checkins.push(self.checkin_at(user, top, kind, &mut rng));
            }
        }

        let mut checkins = time_ordered(&checkins);

        // 8. Optional mid-study relocation: home check-ins after the move
        //    day shift to a fresh home location.
        let mut relocation = None;
        if rng.gen::<f64>() < self.relocation_probability {
            let day = rng.gen_range(DAYS_IN_STUDY / 4..3 * DAYS_IN_STUDY / 4);
            let new_home = loop {
                let d = rng.gen_range(3_000.0..20_000.0);
                let p = home.offset_polar(d, uniform_angle(&mut rng));
                if proj.to_geo(p).map(|g| inner.contains(g)).unwrap_or(false)
                    && tops.iter().all(|t| t.distance(p) >= 2_000.0)
                {
                    break p;
                }
            };
            for c in &mut checkins {
                if c.time.day() >= day && c.location.distance(home) < 200.0 {
                    c.location = new_home + (c.location - home);
                }
            }
            relocation = Some(Relocation { day, old_home: home, new_home });
        }

        UserTrace { user, checkins, truth: GroundTruth { top_locations: tops, shares, relocation } }
    }

    fn checkin_at(
        &self,
        user: UserId,
        place: Point,
        kind: LocationKind,
        rng: &mut StdRng,
    ) -> CheckIn {
        let time = sample_time(kind, rng);
        let location = place + gaussian_2d(rng, self.gps_sigma_m);
        CheckIn { user, time, location }
    }

    /// Materializes the whole population.
    ///
    /// Fine for evaluation-scale populations (thousands of users); for the
    /// full 37k-user paper scale prefer streaming with
    /// [`PopulationConfig::generate_user`].
    pub fn generate(&self) -> Dataset {
        let users = (0..self.num_users as u32).map(|i| self.generate_user(i)).collect();
        Dataset { users }
    }
}

/// `checkins` in timestamp order, ties in generation order — what a stable
/// sort by time gives, from an unstable sort of unique `u64` keys
/// (`seconds << 32 | index`) and one gather.
fn time_ordered(checkins: &[CheckIn]) -> Vec<CheckIn> {
    let mut keys: Vec<u64> = checkins
        .iter()
        .enumerate()
        .map(|(i, c)| {
            // Study timestamps are non-negative and below 2^32 seconds
            // (731 days), and a trace holds fewer than 2^32 check-ins, so
            // both halves fit and the keys order exactly as `(time, i)`.
            assert!((0..1 << 32).contains(&c.time.seconds()) && i >> 32 == 0);
            (c.time.seconds() as u64) << 32 | i as u64
        })
        .collect();
    keys.sort_unstable();
    keys.iter().map(|&key| checkins[key as u32 as usize]).collect()
}

#[derive(Clone, Copy)]
enum LocationKind {
    Home,
    Work,
    OtherTop,
    Nomadic,
}

/// Draws a study timestamp with the diurnal pattern of the location kind:
/// home check-ins happen evenings/nights/weekends, work check-ins during
/// weekday working hours, the rest during general waking hours.
fn sample_time(kind: LocationKind, rng: &mut StdRng) -> Timestamp {
    let minute = rng.gen_range(0..60u8);
    let second = rng.gen_range(0..60u8);
    match kind {
        LocationKind::Home => {
            let day = rng.gen_range(0..DAYS_IN_STUDY);
            // Evening through early morning.
            let hours = [19, 20, 21, 22, 23, 0, 1, 2, 3, 4, 5, 6, 7, 8];
            let hour = hours[rng.gen_range(0..hours.len())];
            Timestamp::from_day_time(day, hour, minute, second)
        }
        LocationKind::Work => {
            // Resample until a weekday; 5 of 7 days qualify.
            loop {
                let day = rng.gen_range(0..DAYS_IN_STUDY);
                let hour = rng.gen_range(9..19u8);
                let t = Timestamp::from_day_time(day, hour, minute, second);
                if t.is_weekday() {
                    return t;
                }
            }
        }
        LocationKind::OtherTop | LocationKind::Nomadic => {
            let day = rng.gen_range(0..DAYS_IN_STUDY);
            let hour = rng.gen_range(8..23u8);
            Timestamp::from_day_time(day, hour, minute, second)
        }
    }
}

/// Builder for [`PopulationConfig`].
#[derive(Debug, Clone)]
pub struct PopulationConfigBuilder {
    config: PopulationConfig,
}

impl Default for PopulationConfigBuilder {
    fn default() -> Self {
        PopulationConfigBuilder {
            config: PopulationConfig {
                num_users: 1_000,
                seed: 0,
                min_checkins: 20,
                max_checkins: 11_435,
                // exp(5.9 + 1.1²/2) ≈ 670 mean check-ins — "near 1k on
                // average" once the heavy tail is included.
                log_mean: 5.9,
                log_sigma: 1.1,
                gps_sigma_m: 15.0,
                diverse_fraction: 0.12,
                relocation_probability: 0.0,
                hotspots: 0,
                hotspot_sigma_m: 4_000.0,
                bbox: shanghai::bounding_box(),
            },
        }
    }
}

impl PopulationConfigBuilder {
    /// Sets the number of users (default 1,000; the paper uses 37,262).
    pub fn num_users(mut self, n: usize) -> Self {
        self.config.num_users = n;
        self
    }

    /// Sets the master seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the per-user check-in count range (default 20..=11,435, the
    /// paper's observed extremes).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ min ≤ max`.
    // lint:allow(dead-pub): integration-test hook: the mobility proptests bound generated check-in counts with it
    pub fn checkin_range(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 1 && min <= max, "invalid check-in range");
        self.config.min_checkins = min;
        self.config.max_checkins = max;
        self
    }

    /// Sets the log-normal parameters of the check-in count distribution.
    pub fn checkin_log_normal(mut self, log_mean: f64, log_sigma: f64) -> Self {
        assert!(log_sigma >= 0.0, "log sigma must be non-negative");
        self.config.log_mean = log_mean;
        self.config.log_sigma = log_sigma;
        self
    }

    /// Clusters homes around `count` urban hotspot centers with the given
    /// Gaussian spread (default: 0 hotspots, i.e. uniform homes).
    ///
    /// # Panics
    ///
    /// Panics if `sigma_m` is not positive and finite.
    // lint:allow(dead-pub): README-documented API: the crates/mobility row's optional urban hotspots
    pub fn hotspots(mut self, count: usize, sigma_m: f64) -> Self {
        assert!(sigma_m.is_finite() && sigma_m > 0.0, "hotspot sigma must be positive");
        self.config.hotspots = count;
        self.config.hotspot_sigma_m = sigma_m;
        self
    }

    /// Sets the probability that a user moves home mid-study (default 0,
    /// i.e. disabled; the paper notes such moves are possible but
    /// infrequent).
    ///
    /// # Panics
    ///
    /// Panics unless the probability is in `[0, 1]`.
    // lint:allow(dead-pub): README-documented API: the crates/mobility row's mid-study relocations, which tests/system_adaptation.rs drives
    pub fn relocation_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.config.relocation_probability = p;
        self
    }

    /// Sets the study bounding box (default: the paper's Shanghai box).
    pub fn bounding_box(mut self, bbox: BoundingBox) -> Self {
        self.config.bbox = bbox;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> PopulationConfig {
        self.config
    }
}

/// A fully materialized synthetic population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    users: Vec<UserTrace>,
}

impl Dataset {
    /// The user traces, ordered by user id.
    pub fn users(&self) -> &[UserTrace] {
        &self.users
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Returns `true` if the dataset has no users.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Total number of check-ins across all users.
    pub fn total_checkins(&self) -> usize {
        self.users.iter().map(|u| u.checkins.len()).sum()
    }

    /// Iterates over user traces.
    pub fn iter(&self) -> std::slice::Iter<'_, UserTrace> {
        self.users.iter()
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a UserTrace;
    type IntoIter = std::slice::Iter<'a, UserTrace>;

    fn into_iter(self) -> Self::IntoIter {
        self.users.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_attack::LocationProfile;

    fn small_config() -> PopulationConfig {
        PopulationConfig::builder().num_users(50).seed(42).build()
    }

    #[test]
    fn time_ordering_matches_a_stable_sort() {
        let mut rng = seeded(11);
        for len in [0usize, 1, 2, 17, 500, 4_000] {
            // Few distinct seconds, so most check-ins tie with others.
            let checkins: Vec<CheckIn> = (0..len)
                .map(|i| CheckIn {
                    user: UserId::new(3),
                    time: Timestamp::new(rng.gen_range(0..1 + len as i64 / 8) * 3_600),
                    location: Point::new(i as f64, 0.0),
                })
                .collect();
            let mut stable = checkins.clone();
            stable.sort_by_key(|c| c.time);
            assert_eq!(time_ordered(&checkins), stable, "{len} check-ins");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let c = small_config();
        assert_eq!(c.generate_user(7), c.generate_user(7));
    }

    #[test]
    fn users_are_independent_of_generation_order() {
        let c = small_config();
        let early = c.generate_user(3);
        let _ = c.generate_user(10);
        assert_eq!(early, c.generate_user(3));
    }

    #[test]
    fn counts_within_paper_range() {
        let c = small_config();
        for i in 0..50u32 {
            let u = c.generate_user(i);
            assert!(
                (20..=11_435).contains(&u.checkins.len()),
                "user {i}: {} check-ins",
                u.checkins.len()
            );
        }
    }

    #[test]
    fn checkins_are_time_sorted_and_in_study_window() {
        let c = small_config();
        let u = c.generate_user(0);
        for w in u.checkins.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        for ck in &u.checkins {
            assert!(ck.time.day() < DAYS_IN_STUDY);
            assert_eq!(ck.user, UserId::new(0));
        }
    }

    #[test]
    fn ground_truth_has_2_to_6_ranked_tops() {
        let c = small_config();
        for i in 0..50u32 {
            let u = c.generate_user(i);
            let m = u.truth.top_locations.len();
            assert!((2..=6).contains(&m), "user {i}: {m} tops");
            assert_eq!(u.truth.shares.len(), m);
            for w in u.truth.shares.windows(2) {
                assert!(w[0] >= w[1], "shares not rank-ordered: {:?}", u.truth.shares);
            }
            assert!(u.truth.shares.iter().sum::<f64>() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn top1_dominates_the_trace() {
        let c = small_config();
        let u = c.generate_user(1);
        let home = u.truth.top_locations[0];
        let near_home = u.checkins.iter().filter(|ck| ck.location.distance(home) < 100.0).count();
        let share = near_home as f64 / u.checkins.len() as f64;
        assert!(share >= 0.3, "top-1 share {share}");
    }

    #[test]
    fn gps_jitter_keeps_checkins_near_their_place() {
        let c = small_config();
        let u = c.generate_user(2);
        // Every check-in should be within ~6σ of *some* known place.
        let mut places = u.truth.top_locations.clone();
        // Nomadic spots are unknown here, so only verify top check-ins: at
        // least the top-1 cluster must be tight.
        let home = places.remove(0);
        let near: Vec<f64> =
            u.checkins.iter().map(|ck| ck.location.distance(home)).filter(|d| *d < 200.0).collect();
        assert!(!near.is_empty());
        assert!(near.iter().cloned().fold(0.0, f64::max) < 120.0);
    }

    #[test]
    fn profiling_recovers_the_generated_structure() {
        let c = small_config();
        let u = c.generate_user(4);
        let profile = LocationProfile::from_checkins(&u.locations(), 50.0);
        // The profile's top-1 centroid matches the generated home.
        let inferred = profile.top(0).unwrap().location;
        assert!(
            inferred.distance(u.truth.top_locations[0]) < 30.0,
            "profiled top-1 off by {} m",
            inferred.distance(u.truth.top_locations[0])
        );
    }

    #[test]
    fn entropy_calibration_mostly_below_two() {
        let n = 120u32;
        let c = PopulationConfig::builder().num_users(n as usize).seed(9).build();
        let mut below = 0;
        for i in 0..n {
            let u = c.generate_user(i);
            let profile = LocationProfile::from_checkins(&u.locations(), 50.0);
            if profile.entropy() < 2.0 {
                below += 1;
            }
        }
        let frac = below as f64 / n as f64;
        // Paper: 88.8 %. Allow a generous band around it.
        assert!((0.75..=1.0).contains(&frac), "entropy<2 fraction {frac}");
    }

    #[test]
    fn diurnal_structure_home_at_night_work_by_day() {
        let c = small_config();
        let u = c.generate_user(5);
        let home = u.truth.top_locations[0];
        let work = u.truth.top_locations[1];
        let home_checkins: Vec<_> =
            u.checkins.iter().filter(|ck| ck.location.distance(home) < 100.0).collect();
        let work_checkins: Vec<_> =
            u.checkins.iter().filter(|ck| ck.location.distance(work) < 100.0).collect();
        assert!(home_checkins.iter().all(|ck| {
            let h = ck.time.hour();
            h >= 19 || h <= 8
        }));
        assert!(work_checkins.iter().all(|ck| ck.time.is_working_hours()));
    }

    #[test]
    fn dataset_aggregates() {
        let c = PopulationConfig::builder().num_users(5).seed(1).build();
        let ds = c.generate();
        assert_eq!(ds.len(), 5);
        assert!(!ds.is_empty());
        assert_eq!(ds.total_checkins(), ds.iter().map(|u| u.checkins.len()).sum::<usize>());
        let ids: Vec<u32> = (&ds).into_iter().map(|u| u.user.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_index() {
        let c = PopulationConfig::builder().num_users(3).seed(0).build();
        let _ = c.generate_user(3);
    }

    #[test]
    fn builder_setters_apply() {
        let bbox = BoundingBox::new(31.0, 31.2, 121.2, 121.6).unwrap();
        let c = PopulationConfig::builder()
            .num_users(12)
            .seed(99)
            .checkin_range(30, 100)
            .checkin_log_normal(4.0, 0.5)
            .bounding_box(bbox)
            .build();
        assert_eq!(c.num_users(), 12);
        assert_eq!(c.seed(), 99);
        assert_eq!(c.bounding_box(), bbox);
        let u = c.generate_user(0);
        assert!((30..=100).contains(&u.checkins.len()));
    }

    #[test]
    fn relocation_moves_late_home_checkins() {
        let c =
            PopulationConfig::builder().num_users(40).seed(77).relocation_probability(1.0).build();
        let mut saw_relocation = false;
        for i in 0..40u32 {
            let u = c.generate_user(i);
            let Some(rel) = u.truth.relocation else { continue };
            saw_relocation = true;
            assert!(rel.old_home.distance(rel.new_home) >= 2_000.0);
            for ck in &u.checkins {
                if ck.time.day() >= rel.day {
                    assert!(
                        ck.location.distance(rel.old_home) > 150.0,
                        "user {i}: post-move check-in still at the old home"
                    );
                } else {
                    assert!(
                        ck.location.distance(rel.new_home) > 150.0,
                        "user {i}: pre-move check-in already at the new home"
                    );
                }
            }
            // Both homes carry real mass.
            let old =
                u.checkins.iter().filter(|c| c.location.distance(rel.old_home) < 100.0).count();
            let new =
                u.checkins.iter().filter(|c| c.location.distance(rel.new_home) < 100.0).count();
            assert!(old > 0 && new > 0, "user {i}: old {old} new {new}");
        }
        assert!(saw_relocation);
    }

    #[test]
    fn hotspots_concentrate_homes() {
        let uniform = PopulationConfig::builder().num_users(60).seed(3).build();
        let clustered =
            PopulationConfig::builder().num_users(60).seed(3).hotspots(3, 2_000.0).build();
        // Mean pairwise home distance shrinks under clustering.
        let spread = |c: &PopulationConfig| {
            let homes: Vec<_> =
                (0..60u32).map(|i| c.generate_user(i).truth.top_locations[0]).collect();
            let mut total = 0.0;
            let mut pairs = 0usize;
            for i in 0..homes.len() {
                for j in (i + 1)..homes.len() {
                    total += homes[i].distance(homes[j]);
                    pairs += 1;
                }
            }
            total / pairs as f64
        };
        let u = spread(&uniform);
        let c = spread(&clustered);
        assert!(c < u * 0.8, "clustered spread {c} vs uniform {u}");
    }

    #[test]
    fn hotspot_centers_shared_across_users() {
        // With one hotspot and tight spread, all homes huddle together.
        let c = PopulationConfig::builder().num_users(20).seed(8).hotspots(1, 1_000.0).build();
        let homes: Vec<_> = (0..20u32).map(|i| c.generate_user(i).truth.top_locations[0]).collect();
        let centroid = privlocad_geo::centroid(&homes).unwrap();
        for h in &homes {
            assert!(h.distance(centroid) < 6_000.0, "home {h} strayed from the hotspot");
        }
    }

    #[test]
    fn relocation_disabled_by_default() {
        let c = PopulationConfig::builder().num_users(10).seed(5).build();
        for i in 0..10u32 {
            assert!(c.generate_user(i).truth.relocation.is_none());
        }
    }
}
