use std::sync::Arc;

use privlocad_geo::Point;
use privlocad_mechanisms::{BatchScratch, CandidateLanes, GeoIndParams, Lppm, NFoldGaussian};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// The obfuscation table `T` of Section V-C: a permanent map from each top
/// location to its released candidate set.
///
/// Lookups match by *proximity*, not exact coordinates: profile centroids
/// drift by a few meters between windows (GPS jitter averages differently
/// over different check-in samples), and minting a fresh candidate set for
/// every drifted centroid would quietly release extra obfuscations of the
/// same place — exactly the longitudinal leak the system exists to stop.
/// Any top location within the table's `match_radius_m` of a recorded one
/// re-uses the recorded candidates.
///
/// Candidate sets are stored as `Arc<[Point]>`: once released they are
/// immutable, so a fleet authority and every edge serving the user can
/// hold the *same* allocation ([`ObfuscationTable::insert_shared`]) instead
/// of cloning the set per device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObfuscationTable {
    match_radius_m: f64,
    entries: Vec<(Point, Arc<[Point]>)>,
}

impl ObfuscationTable {
    /// Creates an empty table with the given proximity-match radius.
    ///
    /// # Panics
    ///
    /// Panics if `match_radius_m` is not positive and finite.
    pub fn new(match_radius_m: f64) -> Self {
        assert!(
            match_radius_m.is_finite() && match_radius_m > 0.0,
            "match radius must be positive and finite"
        );
        ObfuscationTable { match_radius_m, entries: Vec::new() }
    }

    /// The proximity-match radius in meters.
    pub fn match_radius_m(&self) -> f64 {
        self.match_radius_m
    }

    /// Index of the entry covering `location`: the nearest recorded top
    /// within the match radius.
    fn position(&self, location: Point) -> Option<usize> {
        // Serving hot path: one squared distance per entry, no sqrt. The
        // first strictly-nearest entry wins, matching the old
        // filter + min_by pass.
        let radius_sq = self.match_radius_m * self.match_radius_m;
        let mut best: Option<(f64, usize)> = None;
        for (i, (top, _)) in self.entries.iter().enumerate() {
            let d_sq = top.distance_sq(location);
            if d_sq <= radius_sq && best.is_none_or(|(b, _)| d_sq < b) {
                best = Some((d_sq, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Looks up the permanent candidates covering `location`: the nearest
    /// recorded top within the match radius.
    pub fn get(&self, location: Point) -> Option<&[Point]> {
        self.position(location).map(|i| &*self.entries[i].1)
    }

    /// The shared handle to the candidates covering `location` — the
    /// zero-copy handoff the fleet install path uses to give every edge
    /// the same allocation.
    pub fn get_shared(&self, location: Point) -> Option<&Arc<[Point]>> {
        self.position(location).map(|i| &self.entries[i].1)
    }

    /// Returns `true` if `location` is covered by a recorded top location.
    pub fn contains(&self, location: Point) -> bool {
        self.position(location).is_some()
    }

    /// Records the candidates of a *new* top location.
    ///
    /// If `location` is already covered, the existing set is kept — once
    /// released, a candidate set is permanent — and `false` is returned.
    pub fn insert(&mut self, location: Point, candidates: Vec<Point>) -> bool {
        self.insert_shared(location, candidates.into())
    }

    /// [`ObfuscationTable::insert`] for an already-shared candidate set —
    /// an `Arc::clone`, no copy of the points.
    pub fn insert_shared(&mut self, location: Point, candidates: Arc<[Point]>) -> bool {
        if self.contains(location) {
            return false;
        }
        self.entries.push((location, candidates));
        true
    }

    /// Drops every entry while keeping the allocated capacity, so a table
    /// buffer can be reused across logical installs (a device wiping a
    /// departed user, or benchmark steady state) without reallocating.
    ///
    /// This does **not** weaken permanence: the permanence contract binds
    /// the *user's* protection state, which the edge only clears when the
    /// whole state is retired together.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The candidate set at entry `idx` (insertion order).
    fn candidates_at(&self, idx: usize) -> &[Point] {
        &self.entries[idx].1
    }

    /// Iterates the `(top location, candidates)` entries in release
    /// order — used by crash recovery to verify that a restored table
    /// kept every released candidate set bit-for-bit.
    pub fn entries(&self) -> impl Iterator<Item = (Point, &[Point])> {
        self.entries.iter().map(|(top, candidates)| (*top, &**candidates))
    }

    /// Iterates the entries with their shared candidate-set handles —
    /// used by checkpoint capture and footprint accounting, which dedup
    /// by `Arc` identity so a set shared across users is counted (and
    /// serialized) once.
    pub fn shared_entries(&self) -> impl Iterator<Item = (Point, &Arc<[Point]>)> {
        self.entries.iter().map(|(top, candidates)| (*top, candidates))
    }

    /// Number of protected top locations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no location is protected yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The location-obfuscation module: the n-fold Gaussian mechanism plus the
/// permanent obfuscation table.
///
/// The first time a top location is seen, `n` candidates are drawn
/// (spending the one-and-only `(r, ε, δ, n)` budget for that location);
/// every later request re-uses them, so a longitudinal observer's view
/// stops gaining information after the first release.
///
/// # Examples
///
/// ```
/// use privlocad::ObfuscationModule;
/// use privlocad_geo::{rng::seeded, Point};
/// use privlocad_mechanisms::GeoIndParams;
///
/// let params = GeoIndParams::new(500.0, 1.0, 0.01, 10)?;
/// let mut module = ObfuscationModule::new(params, 200.0);
/// let mut rng = seeded(1);
/// let home = Point::new(1_000.0, 2_000.0);
/// let first = module.candidates_for(home, &mut rng).to_vec();
/// let again = module.candidates_for(home, &mut rng).to_vec();
/// assert_eq!(first, again); // permanent
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObfuscationModule {
    mechanism: NFoldGaussian,
    table: ObfuscationTable,
}

impl ObfuscationModule {
    /// Creates the module with a fresh table using `match_radius_m` for
    /// proximity lookups.
    ///
    /// # Panics
    ///
    /// Panics if `match_radius_m` is not positive and finite.
    pub fn new(params: GeoIndParams, match_radius_m: f64) -> Self {
        ObfuscationModule {
            mechanism: NFoldGaussian::new(params),
            table: ObfuscationTable::new(match_radius_m),
        }
    }

    /// The underlying mechanism.
    pub fn mechanism(&self) -> &NFoldGaussian {
        &self.mechanism
    }

    /// The obfuscation table.
    pub fn table(&self) -> &ObfuscationTable {
        &self.table
    }

    /// Returns the permanent candidates covering `top`, generating them on
    /// first use.
    pub fn candidates_for(&mut self, top: Point, rng: &mut dyn RngCore) -> &[Point] {
        // One table scan on the hit path (every request after the first).
        let idx = match self.table.position(top) {
            Some(i) => i,
            None => {
                let candidates = self.mechanism.obfuscate(top, rng);
                self.table.insert(top, candidates);
                self.table.len() - 1
            }
        };
        self.table.candidates_at(idx)
    }

    /// Assembles the module around an already-populated table — the
    /// pooled checkpoint restore path builds the table entry by entry
    /// from shared `Arc<[Point]>` handles and hands it over whole.
    pub(crate) fn from_table(params: GeoIndParams, table: ObfuscationTable) -> Self {
        ObfuscationModule { mechanism: NFoldGaussian::new(params), table }
    }

    /// Installs an externally generated candidate set (e.g. one produced
    /// by a fleet-level authority and distributed to every edge serving
    /// the user). Returns `false` — keeping the existing set — if the
    /// location is already covered.
    pub fn install(&mut self, top: Point, candidates: Vec<Point>) -> bool {
        self.table.insert(top, candidates)
    }

    /// [`ObfuscationModule::install`] for a candidate set already shared
    /// behind an `Arc` — the fleet distribution path, one `Arc::clone` per
    /// edge instead of a per-edge copy of the points.
    pub fn install_shared(&mut self, top: Point, candidates: Arc<[Point]>) -> bool {
        self.table.insert_shared(top, candidates)
    }

    /// Ensures every location in `tops` is covered; returns how many new
    /// candidate sets were generated (the Table II workload per user).
    ///
    /// Candidates are drawn through the batched lane kernel, consuming
    /// `rng` in exactly the order the per-top scalar loop would — the
    /// output is bit-for-bit what the pre-batching implementation
    /// released from the same stream.
    pub fn obfuscate_top_set(&mut self, tops: &[Point], rng: &mut dyn RngCore) -> usize {
        let mut scratch = BatchScratch::new();
        let mut lanes = CandidateLanes::new();
        self.obfuscate_top_set_with(tops, rng, &mut scratch, &mut lanes)
    }

    /// Scratch-reusing variant of [`ObfuscationModule::obfuscate_top_set`]
    /// for callers that close many windows (an edge device, the bench
    /// harness): the uniform/angle/radius lanes live in `scratch`/`lanes`
    /// and are reused across calls.
    pub fn obfuscate_top_set_with(
        &mut self,
        tops: &[Point],
        rng: &mut dyn RngCore,
        scratch: &mut BatchScratch,
        lanes: &mut CandidateLanes,
    ) -> usize {
        let fresh = self.select_fresh(tops);
        if fresh.is_empty() {
            return 0;
        }
        lanes.clear();
        self.mechanism.obfuscate_shared_stream_into(&fresh, rng, scratch, lanes);
        self.install_lanes(&fresh, lanes)
    }

    /// Fleet-authority variant: each fresh top draws from its **own
    /// derived stream** `seeded(derive_seed(master, *pair_counter + k))`,
    /// and `pair_counter` advances by the number of fresh sets — giving
    /// every `(user-window, top)` pair a globally unique stream index, so
    /// the generated candidates are independent of batch boundaries and of
    /// how many users closed windows before this one on any given thread.
    pub fn obfuscate_top_set_derived(
        &mut self,
        tops: &[Point],
        master: u64,
        pair_counter: &mut u64,
        scratch: &mut BatchScratch,
        lanes: &mut CandidateLanes,
    ) -> usize {
        let fresh = self.select_fresh(tops);
        if fresh.is_empty() {
            return 0;
        }
        lanes.clear();
        self.mechanism.obfuscate_many_into(&fresh, master, *pair_counter, scratch, lanes);
        *pair_counter += fresh.len() as u64;
        self.install_lanes(&fresh, lanes)
    }

    /// The tops needing a fresh candidate set, in input order.
    ///
    /// Mirrors the scalar insert-as-you-go loop exactly: a top is fresh
    /// unless the table already covers it *or* an earlier fresh top of
    /// this same batch lands within the match radius (the scalar loop
    /// would have inserted that one before checking this one).
    fn select_fresh(&self, tops: &[Point]) -> Vec<Point> {
        let radius_sq = self.table.match_radius_m() * self.table.match_radius_m();
        let mut fresh: Vec<Point> = Vec::new();
        for &top in tops {
            let covered =
                self.table.contains(top) || fresh.iter().any(|f| f.distance_sq(top) <= radius_sq);
            if !covered {
                fresh.push(top);
            }
        }
        fresh
    }

    /// Installs the generated lanes: `n` consecutive points per fresh top,
    /// each copied once into its permanent `Arc<[Point]>` home.
    fn install_lanes(&mut self, fresh: &[Point], lanes: &CandidateLanes) -> usize {
        let n = self.mechanism.params().n();
        for (i, &top) in fresh.iter().enumerate() {
            self.table.insert_shared(top, lanes.arc_points(i * n..(i + 1) * n));
        }
        fresh.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_geo::rng::seeded;

    fn module(n: usize) -> ObfuscationModule {
        ObfuscationModule::new(GeoIndParams::new(500.0, 1.0, 0.01, n).unwrap(), 200.0)
    }

    #[test]
    fn candidates_are_permanent() {
        let mut m = module(10);
        let mut rng = seeded(2);
        let a = m.candidates_for(Point::new(5.0, 5.0), &mut rng).to_vec();
        let b = m.candidates_for(Point::new(5.0, 5.0), &mut rng).to_vec();
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert_eq!(m.table().len(), 1);
    }

    #[test]
    fn cleared_table_accepts_reinstalls() {
        let mut table = ObfuscationTable::new(200.0);
        let top = Point::new(5.0, 5.0);
        assert!(table.insert(top, vec![Point::ORIGIN]));
        assert!(!table.insert(top, vec![Point::ORIGIN]), "permanent while live");
        table.clear();
        assert!(table.is_empty());
        assert!(table.insert(top, vec![Point::new(1.0, 1.0)]), "retired state reinstalls");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn drifted_centroids_reuse_candidates() {
        // The same home profiled in two windows: centroid drifts by a few
        // meters, candidates must not be re-released.
        let mut m = module(10);
        let mut rng = seeded(3);
        let a = m.candidates_for(Point::new(100.0, 100.0), &mut rng).to_vec();
        let b = m.candidates_for(Point::new(108.0, 95.0), &mut rng).to_vec();
        assert_eq!(a, b);
        assert_eq!(m.table().len(), 1);
    }

    #[test]
    fn distant_locations_get_their_own_sets() {
        let mut m = module(3);
        let mut rng = seeded(4);
        let a = m.candidates_for(Point::new(0.0, 0.0), &mut rng).to_vec();
        let c = m.candidates_for(Point::new(500.0, 0.0), &mut rng).to_vec();
        assert_ne!(a, c);
        assert_eq!(m.table().len(), 2);
    }

    #[test]
    fn get_picks_nearest_covering_entry() {
        let mut t = ObfuscationTable::new(200.0);
        t.insert(Point::new(0.0, 0.0), vec![Point::new(1.0, 0.0)]);
        t.insert(Point::new(300.0, 0.0), vec![Point::new(2.0, 0.0)]);
        let got = t.get(Point::new(180.0, 0.0)).unwrap();
        assert_eq!(got, &[Point::new(2.0, 0.0)]); // 120 m away beats 180 m
        assert!(t.get(Point::new(600.0, 0.0)).is_none());
    }

    #[test]
    fn insert_never_overwrites_covered_locations() {
        let mut t = ObfuscationTable::new(200.0);
        assert!(t.insert(Point::ORIGIN, vec![Point::new(1.0, 1.0)]));
        assert!(!t.insert(Point::new(10.0, 0.0), vec![Point::new(9.0, 9.0)]));
        assert_eq!(t.get(Point::ORIGIN).unwrap(), &[Point::new(1.0, 1.0)]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn obfuscate_top_set_counts_fresh_only() {
        let mut m = module(2);
        let mut rng = seeded(4);
        let tops = [Point::new(0.0, 0.0), Point::new(8_000.0, 0.0)];
        assert_eq!(m.obfuscate_top_set(&tops, &mut rng), 2);
        assert_eq!(m.obfuscate_top_set(&tops, &mut rng), 0);
        let more = [Point::new(20.0, 0.0), Point::new(0.0, 8_000.0)];
        assert_eq!(m.obfuscate_top_set(&more, &mut rng), 1);
        assert_eq!(m.table().len(), 3);
    }

    #[test]
    fn obfuscate_top_set_matches_the_scalar_reference_stream() {
        // Bit-identity with the pre-batching per-top loop: the batched
        // kernel consumes the same rng stream and releases the same points,
        // including the interleaved skip of a top covered by an earlier
        // fresh set of the same batch.
        let mut m = module(5);
        let mut rng = seeded(21);
        let tops = [
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0), // within 200 m of the first: no own set
            Point::new(5_000.0, 0.0),
        ];
        assert_eq!(m.obfuscate_top_set(&tops, &mut rng), 2);
        let mech = *m.mechanism();
        let mut scalar_rng = seeded(21);
        let first = mech.obfuscate(tops[0], &mut scalar_rng);
        let third = mech.obfuscate(tops[2], &mut scalar_rng);
        assert_eq!(m.table().get(tops[0]).unwrap(), &first[..]);
        assert_eq!(m.table().get(tops[2]).unwrap(), &third[..]);
        assert_eq!(m.table().len(), 2);
    }

    #[test]
    fn derived_top_set_streams_are_indexed_by_pair_counter() {
        use privlocad_geo::rng::derive_seed;
        use privlocad_mechanisms::{BatchScratch, CandidateLanes};
        let mut m = module(4);
        let mut scratch = BatchScratch::new();
        let mut lanes = CandidateLanes::new();
        let mut counter = 3u64;
        let tops = [Point::new(0.0, 0.0), Point::new(9_000.0, 0.0)];
        assert_eq!(
            m.obfuscate_top_set_derived(&tops, 55, &mut counter, &mut scratch, &mut lanes),
            2
        );
        assert_eq!(counter, 5);
        let mech = *m.mechanism();
        for (k, &top) in tops.iter().enumerate() {
            let mut rng = seeded(derive_seed(55, 3 + k as u64));
            assert_eq!(m.table().get(top).unwrap(), &mech.obfuscate(top, &mut rng)[..]);
        }
        // Re-running generates nothing and leaves the counter untouched —
        // candidate permanence survives the batched path.
        assert_eq!(
            m.obfuscate_top_set_derived(&tops, 55, &mut counter, &mut scratch, &mut lanes),
            0
        );
        assert_eq!(counter, 5);
    }

    #[test]
    fn shared_installs_reuse_one_allocation() {
        use std::sync::Arc;
        let mut a = module(3);
        let mut b = module(3);
        let candidates: Arc<[Point]> = vec![Point::new(1.0, 2.0); 3].into();
        assert!(a.install_shared(Point::ORIGIN, Arc::clone(&candidates)));
        assert!(b.install_shared(Point::ORIGIN, Arc::clone(&candidates)));
        // Two tables, three handles, one allocation.
        assert_eq!(Arc::strong_count(&candidates), 3);
        assert!(Arc::ptr_eq(a.table().get_shared(Point::ORIGIN).unwrap(), &candidates));
        // Permanence still holds for the shared path.
        assert!(!a.install_shared(Point::new(5.0, 0.0), Arc::clone(&candidates)));
        assert_eq!(a.table().len(), 1);
    }

    #[test]
    fn empty_table_queries() {
        let t = ObfuscationTable::new(200.0);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.get(Point::ORIGIN).is_none());
        assert!(!t.contains(Point::ORIGIN));
        assert_eq!(t.match_radius_m(), 200.0);
    }

    #[test]
    #[should_panic(expected = "match radius must be positive")]
    fn rejects_bad_match_radius() {
        let _ = ObfuscationTable::new(f64::NAN);
    }

    #[test]
    fn candidates_are_centered_near_the_top_statistically() {
        let mut m = module(200);
        let mut rng = seeded(5);
        let top = Point::new(1_000.0, -2_000.0);
        let cands = m.candidates_for(top, &mut rng);
        let mean = privlocad_geo::centroid(cands).unwrap();
        // With 200 candidates the sample mean should be within ~3σ/√200.
        let tol = 3.0 * m.mechanism().sigma() / (200f64).sqrt();
        assert!(mean.distance(top) < tol, "mean off by {}", mean.distance(top));
    }
}
