use std::collections::BTreeMap;

use privlocad_attack::LocationProfile;
use privlocad_geo::rng::derive_seed;
use privlocad_geo::Point;
use privlocad_mechanisms::NFoldGaussian;
use privlocad_mobility::UserId;

use crate::{frequent_location_set, CandidateArena, EdgeDevice, ObfuscationModule, SystemConfig};

/// A fleet of edge devices covering different parts of the city
/// (Section V-B's multi-edge scenario).
///
/// A commuter's check-ins land on whichever edge is nearest, so "the edge
/// devices can only record a local part of the whole location profile".
/// At window end the fleet merges the partial profiles, computes the
/// η-frequent location set over the *merged* profile, generates each new
/// top location's permanent candidates exactly once, and installs the
/// result on every edge serving the user — so any edge answers ad requests
/// consistently and no location's budget is ever spent twice.
///
/// (The paper notes the merge could run under MPC for confidentiality
/// between edges; that protocol is explicitly out of its scope and ours —
/// we merge in the clear.)
///
/// # Examples
///
/// ```
/// use privlocad::{EdgeFleet, SystemConfig};
/// use privlocad_geo::Point;
/// use privlocad_mobility::UserId;
///
/// let sites = vec![Point::ORIGIN, Point::new(12_000.0, 0.0)];
/// let mut fleet = EdgeFleet::new(SystemConfig::builder().build()?, sites, 5);
/// let user = UserId::new(1);
/// // Home near site 0, office near site 1 — each edge sees half the story.
/// for _ in 0..40 {
///     fleet.report_checkin(user, Point::new(100.0, 0.0));
///     fleet.report_checkin(user, Point::new(11_900.0, 0.0));
/// }
/// let fresh = fleet.finalize_user_window(user);
/// assert_eq!(fresh, 2); // both tops protected from the merged profile
/// # Ok::<(), privlocad::SystemError>(())
/// ```
#[derive(Debug)]
pub struct EdgeFleet {
    config: SystemConfig,
    sites: Vec<Point>,
    edges: Vec<EdgeDevice>,
    /// The n-fold Gaussian mechanism every per-user authority draws with,
    /// built once from the config.
    mechanism: NFoldGaussian,
    authorities: BTreeMap<UserId, ObfuscationModule>,
    /// The staged shared sets of the current install, reused across every
    /// window close.
    arena: CandidateArena,
    /// Master seed of the fleet's derived candidate streams.
    master: u64,
    /// Monotone `(window, top)` pair counter: each fresh candidate set
    /// draws from stream `derive_seed(master, counter++)`, so streams
    /// never overlap regardless of batch boundaries.
    pair_counter: u64,
}

impl EdgeFleet {
    /// Creates a fleet with one edge device per coverage site.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty or contains a non-finite point.
    pub fn new(config: SystemConfig, sites: Vec<Point>, seed: u64) -> Self {
        assert!(!sites.is_empty(), "a fleet needs at least one edge site");
        assert!(sites.iter().all(|s| s.is_finite()), "sites must be finite");
        // Every site serves per-user streams from a master of its own: a
        // commuter's nomadic reports at two sites must never share a noise
        // draw, or subtracting them would cancel the noise and reveal the
        // true displacement between the two places.
        let edges = (0..sites.len())
            .map(|i| EdgeDevice::new(config, derive_seed(seed, i as u64)))
            .collect();
        EdgeFleet {
            mechanism: NFoldGaussian::new(config.geo_ind()),
            config,
            sites,
            edges,
            authorities: BTreeMap::new(),
            arena: CandidateArena::new(),
            master: seed,
            pair_counter: 0,
        }
    }

    /// Number of edge devices.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` for a fleet without edges (never constructible).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The index of the edge covering `location` (nearest site).
    pub fn route(&self, location: Point) -> usize {
        self.sites
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.distance(location).total_cmp(&b.1.distance(location)))
            .map(|(i, _)| i)
            // lint:allow(panic-hygiene): provably infallible — the constructor asserts sites is non-empty
            .expect("fleet has at least one site")
    }

    /// Immutable access to one edge (e.g. for assertions in tests).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn edge(&self, index: usize) -> &EdgeDevice {
        &self.edges[index]
    }

    /// Records a check-in on the nearest edge.
    pub fn report_checkin(&mut self, user: UserId, true_location: Point) {
        let idx = self.route(true_location);
        self.edges[idx].report_checkin(user, true_location);
    }

    /// Closes the user's window fleet-wide: merges the partial profiles,
    /// recomputes the η-frequent set, generates candidates for *new* top
    /// locations once, and installs the merged protection on every edge.
    /// Returns the number of freshly obfuscated top locations.
    pub fn finalize_user_window(&mut self, user: UserId) -> usize {
        // 1. Collect and merge partial profiles.
        let mut merged: Option<LocationProfile> = None;
        for edge in &mut self.edges {
            if let Some(profile) = edge.close_window_profile(user) {
                merged = Some(match merged {
                    Some(m) => m.merge(&profile, self.config.profile_theta_m()),
                    None => profile,
                });
            }
        }
        let Some(merged) = merged else { return 0 };

        // 2. The merged η-frequent set.
        let tops = frequent_location_set(&merged, self.config.eta());

        // 3. One fleet-level obfuscation authority per user: candidates
        //    are drawn once, permanently, regardless of which edge asked.
        //    The arena draws every fresh set with the scalar loop and
        //    stages a shared handle to each queried top's set, posterior
        //    weights included, for the batched install below.
        let authority = self.authorities.entry(user).or_default();
        let top_points: Vec<Point> = tops.iter().map(|e| e.location).collect();
        let fresh = self.arena.prepare(
            authority,
            &self.mechanism,
            self.config.top_match_radius_m(),
            &top_points,
            self.master,
            &mut self.pair_counter,
        );

        // 4. Install the merged protection on every edge: per edge this is
        //    an `Arc` bump per set, not a candidate-vector clone plus a
        //    posterior-weight pass.
        for edge in &mut self.edges {
            edge.install_protection(user, tops.clone(), self.arena.sets());
        }
        fresh
    }

    /// Produces the reported location for an ad request at `current_true`,
    /// answered by the nearest edge.
    pub fn reported_location(&mut self, user: UserId, current_true: Point) -> Point {
        let idx = self.route(current_true);
        self.edges[idx].reported_location(user, current_true)
    }

    /// Measures the fleet's resident state ([`crate::StateFootprint`]).
    ///
    /// Shared pools dedup *across* edges: a candidate set installed on
    /// every edge by [`EdgeFleet::finalize_user_window`] is one `Arc`
    /// fleet-wide and is counted once, while `users` and
    /// `candidate_set_refs` count per-edge residency (a commuter served by
    /// two edges contributes two resident user states). The staging
    /// arena's live handles are included under the same dedup.
    pub fn footprint(&self) -> crate::StateFootprint {
        let mut fp = crate::StateFootprint::default();
        let mut seen_sets = std::collections::BTreeSet::new();
        for edge in &self.edges {
            edge.accumulate_footprint(&mut fp, &mut seen_sets);
        }
        self.arena.accumulate_footprint(&mut fp, &mut seen_sets);
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> EdgeFleet {
        EdgeFleet::new(
            SystemConfig::builder().build().unwrap(),
            vec![Point::ORIGIN, Point::new(12_000.0, 0.0)],
            9,
        )
    }

    #[test]
    fn routing_picks_the_nearest_site() {
        let f = fleet();
        assert_eq!(f.route(Point::new(100.0, 0.0)), 0);
        assert_eq!(f.route(Point::new(11_000.0, 0.0)), 1);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
    }

    #[test]
    fn partial_profiles_merge_into_full_top_set() {
        let mut f = fleet();
        let user = UserId::new(1);
        let home = Point::new(50.0, 0.0);
        let office = Point::new(11_950.0, 0.0);
        for _ in 0..60 {
            f.report_checkin(user, home);
        }
        for _ in 0..40 {
            f.report_checkin(user, office);
        }
        // Each edge alone saw a single location…
        assert_eq!(f.finalize_user_window(user), 2);
        // …but after the merge both edges protect both places.
        for idx in 0..2 {
            assert!(f.edge(idx).candidates(user, home).is_some(), "edge {idx} home");
            assert!(f.edge(idx).candidates(user, office).is_some(), "edge {idx} office");
        }
    }

    #[test]
    fn all_edges_answer_with_the_same_candidates() {
        let mut f = fleet();
        let user = UserId::new(2);
        let home = Point::new(10.0, 10.0);
        for _ in 0..50 {
            f.report_checkin(user, home);
        }
        f.finalize_user_window(user);
        let from_a = f.edge(0).candidates(user, home).unwrap();
        let from_b = f.edge(1).candidates(user, home).unwrap();
        assert_eq!(from_a, from_b, "fleet-wide consistency");
        // Requests through the fleet use exactly those candidates.
        for _ in 0..20 {
            let reported = f.reported_location(user, home);
            assert!(from_a.contains(&reported));
        }
    }

    #[test]
    fn candidates_are_permanent_across_windows_and_edges() {
        let mut f = fleet();
        let user = UserId::new(3);
        let home = Point::new(0.0, 40.0);
        for _ in 0..30 {
            f.report_checkin(user, home);
        }
        f.finalize_user_window(user);
        let before = f.edge(0).candidates(user, home).unwrap();
        // A later window with the same home (centroid drifts slightly).
        for _ in 0..30 {
            f.report_checkin(user, home + Point::new(5.0, -3.0));
        }
        let fresh = f.finalize_user_window(user);
        assert_eq!(fresh, 0, "no re-release for a known top location");
        assert_eq!(f.edge(1).candidates(user, home).unwrap(), before);
    }

    #[test]
    fn batched_install_keeps_edge_telemetry_and_ledger_unchanged() {
        use privlocad_telemetry::{top_key, Telemetry};

        let mut f = fleet();
        let user = UserId::new(4);
        let home = Point::new(80.0, 0.0);
        let office = Point::new(11_920.0, 0.0);
        for _ in 0..60 {
            f.report_checkin(user, home);
        }
        for _ in 0..40 {
            f.report_checkin(user, office);
        }
        assert_eq!(f.finalize_user_window(user), 2);

        // Each edge ledgers the install of both merged sets exactly once —
        // the Arc-shared install path must be indistinguishable from the
        // old per-edge clone in every counter and spend event. (One hub
        // per edge: both edges legitimately hold the same released sets,
        // which a shared ledger would misread as a double spend.)
        for edge in &mut f.edges {
            let telemetry = Telemetry::new();
            edge.drain_telemetry(&telemetry);
            let metrics = telemetry.registry().snapshot();
            assert_eq!(metrics.counter("edge.fresh_candidate_sets"), Some(2));
            assert_eq!(metrics.counter("edge.windows_closed"), Some(1));
            let live: Vec<(u64, _)> = edge
                .snapshot()
                .released_sets()
                .unwrap()
                .into_iter()
                .map(|(u, p)| (u64::from(u.raw()), top_key(p.x, p.y)))
                .collect();
            assert_eq!(live.len(), 2);
            telemetry.ledger().assert_no_double_spend(live).unwrap();
            assert_eq!(telemetry.ledger().totals().candidate_sets, 2);
        }

        // A later window over known tops re-installs the same shared sets:
        // nothing fresh, and not a single new candidate-set spend.
        for _ in 0..30 {
            f.report_checkin(user, home);
        }
        assert_eq!(f.finalize_user_window(user), 0);
        for edge in &mut f.edges {
            let telemetry = Telemetry::new();
            edge.drain_telemetry(&telemetry);
            let metrics = telemetry.registry().snapshot();
            assert_eq!(metrics.counter("edge.fresh_candidate_sets"), Some(0));
            assert_eq!(telemetry.ledger().totals().candidate_sets, 0);
        }
    }

    #[test]
    fn footprint_counts_cross_edge_shared_sets_once() {
        let mut f = fleet();
        let user = UserId::new(5);
        let home = Point::new(60.0, 0.0);
        let office = Point::new(11_940.0, 0.0);
        for _ in 0..60 {
            f.report_checkin(user, home);
        }
        for _ in 0..40 {
            f.report_checkin(user, office);
        }
        assert_eq!(f.finalize_user_window(user), 2);

        let fp = f.footprint();
        // One user resident on both edges, each edge citing both sets…
        assert_eq!(fp.users, 2);
        assert_eq!(fp.candidate_set_refs, 4);
        // …but the Arc-shared install stores each set, weights included,
        // exactly once fleet-wide.
        assert_eq!(fp.distinct_candidate_sets, 2);
        assert_eq!(fp.shared_bytes, 2 * (10 * 24 + 16));
        assert_eq!(fp.total_bytes(), fp.user_bytes + fp.shared_bytes);
        // Sanity: summing per-edge footprints double counts the pools.
        let naive: u64 = (0..f.len()).map(|i| f.edge(i).footprint().shared_bytes).sum();
        assert_eq!(naive, 2 * fp.shared_bytes);
    }

    #[test]
    fn a_commuters_nomadic_reports_at_two_sites_never_share_a_noise_draw() {
        let mut f = fleet();
        let user = UserId::new(6);
        // No window has closed, so every report is a fresh one-time
        // planar-Laplace draw from the serving site's stream for the user.
        let near_a = Point::new(300.0, 200.0);
        let near_b = Point::new(11_800.0, -150.0);
        let mut noise = |at: Point| -> Vec<Point> {
            (0..20).map(|_| f.reported_location(user, at) - at).collect()
        };
        let (at_a, at_b) = (noise(near_a), noise(near_b));
        for (i, a) in at_a.iter().enumerate() {
            for (j, b) in at_b.iter().enumerate() {
                assert!(
                    a.distance(*b) > 1e-6,
                    "report {i} at site 0 and report {j} at site 1 share a noise draw"
                );
            }
        }
    }

    #[test]
    fn unknown_user_finalize_is_a_no_op() {
        let mut f = fleet();
        assert_eq!(f.finalize_user_window(UserId::new(99)), 0);
    }

    #[test]
    #[should_panic(expected = "at least one edge site")]
    fn rejects_empty_fleet() {
        let _ = EdgeFleet::new(SystemConfig::builder().build().unwrap(), vec![], 0);
    }
}
