use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use privlocad_mechanisms::{Lppm, NFoldGaussian, PosteriorSelector, PosteriorTable};
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
/// Any top location within the caller's match radius of a recorded one
/// re-uses the recorded candidates. The radius is a device constant
/// ([`crate::SystemConfig::top_match_radius_m`]), passed to each lookup and
/// insert rather than stored per table.
///
/// Each released set is stored as a [`PosteriorTable`]: its points and
/// their posterior cumulative weights in one shared allocation. Once
/// released a set is immutable, so a fleet authority and every edge
/// serving the user hold the *same* allocation instead of a copy per
/// device, and an ad request reads the weights from the set it draws from.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObfuscationTable {
    entries: Vec<(Point, PosteriorTable)>,
}

impl ObfuscationTable {
    /// Makes room for exactly `additional` more entries: a restore or a
    /// window close knows how many sets it adds.
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
    }

    /// Index of the entry covering `location`: the nearest recorded top
    /// within `match_radius_m` meters.
    pub(crate) fn position(&self, location: Point, match_radius_m: f64) -> Option<usize> {
        // Serving hot path: one squared distance per entry, no sqrt. The
        // first strictly-nearest entry wins, matching the old
        // filter + min_by pass.
        let radius_sq = match_radius_m * match_radius_m;
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
    /// recorded top within `match_radius_m` meters.
    pub fn get(&self, location: Point, match_radius_m: f64) -> Option<&PosteriorTable> {
        self.position(location, match_radius_m).map(|i| &self.entries[i].1)
    }

    /// Returns `true` if `location` is covered by a recorded top location
    /// within `match_radius_m` meters.
    pub fn contains(&self, location: Point, match_radius_m: f64) -> bool {
        self.position(location, match_radius_m).is_some()
    }

    /// Records the candidates of a *new* top location — an `Arc` bump, no
    /// copy of the points.
    ///
    /// If `location` is already covered within `match_radius_m` meters, the
    /// existing set is kept — once released, a candidate set is permanent —
    /// and `false` is returned.
    pub fn insert(
        &mut self,
        location: Point,
        candidates: PosteriorTable,
        match_radius_m: f64,
    ) -> bool {
        if self.contains(location, match_radius_m) {
            return false;
        }
        self.push(location, candidates);
        true
    }

    /// Appends an entry, growing the table by exactly that entry when it
    /// is full: a device holds thousands of tables of a few sets each, and
    /// a doubled one would pin the spare slots for good.
    fn push(&mut self, location: Point, candidates: PosteriorTable) {
        self.entries.reserve_exact(1);
        self.entries.push((location, candidates));
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

    /// Iterates the `(top location, candidates)` entries in release
    /// order — what a checkpoint pools and a footprint counts, by
    /// allocation, so a set shared across users is stored once.
    pub fn entries(&self) -> impl Iterator<Item = (Point, &PosteriorTable)> {
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

/// The location-obfuscation module: one user's permanent obfuscation table,
/// filled by the n-fold Gaussian mechanism.
///
/// The first time a top location is seen, `n` candidates are drawn
/// (spending the one-and-only `(r, ε, δ, n)` budget for that location);
/// every later request re-uses them, so a longitudinal observer's view
/// stops gaining information after the first release.
///
/// The mechanism and the match radius are the device's: every draw and
/// lookup takes them as arguments, so a module holds only its user's sets.
///
/// # Examples
///
/// ```
/// use privlocad::ObfuscationModule;
/// use privlocad_geo::{rng::seeded, Point};
/// use privlocad_mechanisms::{GeoIndParams, NFoldGaussian};
///
/// let mechanism = NFoldGaussian::new(GeoIndParams::new(500.0, 1.0, 0.01, 10)?);
/// let mut module = ObfuscationModule::default();
/// let mut rng = seeded(1);
/// let home = Point::new(1_000.0, 2_000.0);
/// let first = module.candidates_for(&mechanism, 200.0, home, &mut rng).clone();
/// let again = module.candidates_for(&mechanism, 200.0, home, &mut rng).clone();
/// assert_eq!(first, again); // permanent
/// assert_eq!(first.len(), 10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObfuscationModule {
    table: ObfuscationTable,
}

impl ObfuscationModule {
    /// The obfuscation table.
    pub fn table(&self) -> &ObfuscationTable {
        &self.table
    }

    /// Returns the permanent candidates covering `top` within
    /// `match_radius_m` meters, drawing them from `mechanism` — and
    /// weighing them, once — on first use.
    pub fn candidates_for(
        &mut self,
        mechanism: &NFoldGaussian,
        match_radius_m: f64,
        top: Point,
        rng: &mut dyn RngCore,
    ) -> &PosteriorTable {
        // One table scan on the hit path (every request after the first).
        let idx = match self.table.position(top, match_radius_m) {
            Some(i) => i,
            None => {
                let candidates = mechanism.obfuscate(top, rng);
                let set = PosteriorSelector::new(mechanism.sigma()).table(&candidates);
                self.table.push(top, set);
                self.table.len() - 1
            }
        };
        &self.table.entries[idx].1
    }

    /// Assembles the module around an already-populated table — the
    /// pooled checkpoint restore path builds the table entry by entry
    /// from shared pool handles and hands it over whole.
    pub(crate) fn from_table(table: ObfuscationTable) -> Self {
        ObfuscationModule { table }
    }

    /// Installs an externally generated candidate set (one a fleet-level
    /// authority drew and distributes to every edge serving the user) —
    /// an `Arc` bump per edge, weights included, not a copy. Returns
    /// `false` — keeping the existing set — if the location is already
    /// covered within `match_radius_m` meters.
    pub fn install(&mut self, top: Point, candidates: PosteriorTable, match_radius_m: f64) -> bool {
        self.table.insert(top, candidates, match_radius_m)
    }

    /// Ensures every location in `tops` is covered within `match_radius_m`
    /// meters; returns how many new candidate sets `mechanism` drew (the
    /// Table II workload per user).
    ///
    /// Each fresh top draws its `n` candidates from `rng` in top order,
    /// Algorithm 3's scalar loop, and is weighed as it lands.
    pub fn obfuscate_top_set(
        &mut self,
        mechanism: &NFoldGaussian,
        match_radius_m: f64,
        tops: &[Point],
        rng: &mut dyn RngCore,
    ) -> usize {
        self.install_fresh(mechanism, match_radius_m, tops, |top, out| {
            mechanism.obfuscate_into(top, rng, out)
        })
    }

    /// Fleet-authority variant: each fresh top draws from its **own
    /// derived stream** `seeded(derive_seed(master, *pair_counter + k))`,
    /// and `pair_counter` advances by the number of fresh sets — giving
    /// every `(user-window, top)` pair a globally unique stream index, so
    /// the generated candidates are independent of batch boundaries and of
    /// how many users closed windows before this one on any given thread.
    pub fn obfuscate_top_set_derived(
        &mut self,
        mechanism: &NFoldGaussian,
        match_radius_m: f64,
        tops: &[Point],
        master: u64,
        pair_counter: &mut u64,
    ) -> usize {
        self.install_fresh(mechanism, match_radius_m, tops, |top, out| {
            let mut rng = seeded(derive_seed(master, *pair_counter));
            *pair_counter += 1;
            mechanism.obfuscate_into(top, &mut rng, out);
        })
    }

    /// The one install loop. A top is fresh unless the table covers it or
    /// an earlier fresh top of this call lands within the match radius;
    /// the fresh tops are found first, so the table grows once, by exactly
    /// their number. Then, in top order, `draw` appends each fresh top's
    /// candidates to one reused buffer, and the set is weighed once into
    /// its permanent entry. Returns the number of fresh sets.
    fn install_fresh(
        &mut self,
        mechanism: &NFoldGaussian,
        match_radius_m: f64,
        tops: &[Point],
        mut draw: impl FnMut(Point, &mut Vec<Point>),
    ) -> usize {
        let radius_sq = match_radius_m * match_radius_m;
        let mut fresh: Vec<Point> = Vec::new();
        for &top in tops {
            if !self.table.contains(top, match_radius_m)
                && !fresh.iter().any(|f| f.distance_sq(top) <= radius_sq)
            {
                fresh.push(top);
            }
        }
        let selector = PosteriorSelector::new(mechanism.sigma());
        let mut candidates = Vec::new();
        self.table.reserve_exact(fresh.len());
        for &top in &fresh {
            candidates.clear();
            draw(top, &mut candidates);
            self.table.push(top, selector.table(&candidates));
        }
        fresh.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_mechanisms::GeoIndParams;

    /// The match radius every test looks tops up by.
    const R: f64 = 200.0;

    /// The device's n-fold mechanism at `n` candidates.
    fn mechanism(n: usize) -> NFoldGaussian {
        NFoldGaussian::new(GeoIndParams::new(500.0, 1.0, 0.01, n).unwrap())
    }

    /// A stored set over `points`.
    fn set(points: &[Point]) -> PosteriorTable {
        PosteriorSelector::new(500.0).table(points)
    }

    /// The points of a stored set.
    fn pts(set: &PosteriorTable) -> Vec<Point> {
        set.points().collect()
    }

    #[test]
    fn candidates_are_permanent() {
        let (mech, mut m) = (mechanism(10), ObfuscationModule::default());
        let mut rng = seeded(2);
        let a = pts(m.candidates_for(&mech, R, Point::new(5.0, 5.0), &mut rng));
        let b = pts(m.candidates_for(&mech, R, Point::new(5.0, 5.0), &mut rng));
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert_eq!(m.table().len(), 1);
    }

    #[test]
    fn cleared_table_accepts_reinstalls() {
        let mut table = ObfuscationTable::default();
        let top = Point::new(5.0, 5.0);
        assert!(table.insert(top, set(&[Point::ORIGIN]), R));
        assert!(!table.insert(top, set(&[Point::ORIGIN]), R), "permanent while live");
        table.clear();
        assert!(table.is_empty());
        assert!(table.insert(top, set(&[Point::new(1.0, 1.0)]), R), "retired state reinstalls");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn drifted_centroids_reuse_candidates() {
        // The same home profiled in two windows: centroid drifts by a few
        // meters, candidates must not be re-released.
        let (mech, mut m) = (mechanism(10), ObfuscationModule::default());
        let mut rng = seeded(3);
        let a = pts(m.candidates_for(&mech, R, Point::new(100.0, 100.0), &mut rng));
        let b = pts(m.candidates_for(&mech, R, Point::new(108.0, 95.0), &mut rng));
        assert_eq!(a, b);
        assert_eq!(m.table().len(), 1);
    }

    #[test]
    fn distant_locations_get_their_own_sets() {
        let (mech, mut m) = (mechanism(3), ObfuscationModule::default());
        let mut rng = seeded(4);
        let a = pts(m.candidates_for(&mech, R, Point::new(0.0, 0.0), &mut rng));
        let c = pts(m.candidates_for(&mech, R, Point::new(500.0, 0.0), &mut rng));
        assert_ne!(a, c);
        assert_eq!(m.table().len(), 2);
    }

    #[test]
    fn get_picks_nearest_covering_entry() {
        let mut t = ObfuscationTable::default();
        t.insert(Point::new(0.0, 0.0), set(&[Point::new(1.0, 0.0)]), R);
        t.insert(Point::new(300.0, 0.0), set(&[Point::new(2.0, 0.0)]), R);
        let got = t.get(Point::new(180.0, 0.0), R).unwrap();
        assert_eq!(pts(got), [Point::new(2.0, 0.0)]); // 120 m away beats 180 m
        assert!(t.get(Point::new(600.0, 0.0), R).is_none());
        // The radius is the caller's: a wider one covers the far top too.
        assert_eq!(pts(t.get(Point::new(600.0, 0.0), 400.0).unwrap()), [Point::new(2.0, 0.0)]);
    }

    #[test]
    fn insert_never_overwrites_covered_locations() {
        let mut t = ObfuscationTable::default();
        assert!(t.insert(Point::ORIGIN, set(&[Point::new(1.0, 1.0)]), R));
        assert!(!t.insert(Point::new(10.0, 0.0), set(&[Point::new(9.0, 9.0)]), R));
        assert_eq!(pts(t.get(Point::ORIGIN, R).unwrap()), [Point::new(1.0, 1.0)]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn obfuscate_top_set_counts_fresh_only() {
        let (mech, mut m) = (mechanism(2), ObfuscationModule::default());
        let mut rng = seeded(4);
        let tops = [Point::new(0.0, 0.0), Point::new(8_000.0, 0.0)];
        assert_eq!(m.obfuscate_top_set(&mech, R, &tops, &mut rng), 2);
        assert_eq!(m.obfuscate_top_set(&mech, R, &tops, &mut rng), 0);
        let more = [Point::new(20.0, 0.0), Point::new(0.0, 8_000.0)];
        assert_eq!(m.obfuscate_top_set(&mech, R, &more, &mut rng), 1);
        assert_eq!(m.table().len(), 3);
    }

    #[test]
    fn obfuscate_top_set_matches_the_scalar_reference_stream() {
        // One stream, drawn top by top: the sets are what per-top
        // `obfuscate` calls on the same stream release, skipping a top
        // covered by an earlier fresh set of the same batch.
        let (mech, mut m) = (mechanism(5), ObfuscationModule::default());
        let mut rng = seeded(21);
        let tops = [
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0), // within 200 m of the first: no own set
            Point::new(5_000.0, 0.0),
        ];
        assert_eq!(m.obfuscate_top_set(&mech, R, &tops, &mut rng), 2);
        let mut scalar_rng = seeded(21);
        let first = mech.obfuscate(tops[0], &mut scalar_rng);
        let third = mech.obfuscate(tops[2], &mut scalar_rng);
        assert_eq!(pts(m.table().get(tops[0], R).unwrap()), first);
        assert_eq!(pts(m.table().get(tops[2], R).unwrap()), third);
        // Each set carries its weights, as the from-scratch build has them.
        let selector = PosteriorSelector::new(mech.sigma());
        assert_eq!(*m.table().get(tops[0], R).unwrap(), selector.table(&first));
        assert_eq!(m.table().len(), 2);
    }

    #[test]
    fn derived_top_set_streams_are_indexed_by_pair_counter() {
        let (mech, mut m) = (mechanism(4), ObfuscationModule::default());
        let mut counter = 3u64;
        let tops = [Point::new(0.0, 0.0), Point::new(9_000.0, 0.0)];
        assert_eq!(m.obfuscate_top_set_derived(&mech, R, &tops, 55, &mut counter), 2);
        assert_eq!(counter, 5);
        for (k, &top) in tops.iter().enumerate() {
            let mut rng = seeded(derive_seed(55, 3 + k as u64));
            assert_eq!(pts(m.table().get(top, R).unwrap()), mech.obfuscate(top, &mut rng));
        }
        // Re-running generates nothing and leaves the counter untouched:
        // candidate permanence.
        assert_eq!(m.obfuscate_top_set_derived(&mech, R, &tops, 55, &mut counter), 0);
        assert_eq!(counter, 5);
    }

    #[test]
    fn shared_installs_reuse_one_allocation() {
        let (mut a, mut b) = (ObfuscationModule::default(), ObfuscationModule::default());
        let candidates = set(&[Point::new(1.0, 2.0); 3]);
        assert!(a.install(Point::ORIGIN, candidates.clone(), R));
        assert!(b.install(Point::ORIGIN, candidates.clone(), R));
        // Two tables, three handles, one allocation.
        assert_eq!(a.table().get(Point::ORIGIN, R).unwrap().addr(), candidates.addr());
        assert_eq!(b.table().get(Point::ORIGIN, R).unwrap().addr(), candidates.addr());
        assert!(candidates.is_shared());
        // Permanence still holds for the shared path.
        assert!(!a.install(Point::new(5.0, 0.0), candidates.clone(), R));
        assert_eq!(a.table().len(), 1);
    }

    #[test]
    fn tables_hold_no_spare_capacity() {
        let (mech, mut m) = (mechanism(3), ObfuscationModule::default());
        let mut rng = seeded(6);
        let spare = |m: &ObfuscationModule| m.table.entries.capacity() - m.table.len();
        let tops = [Point::new(0.0, 0.0), Point::new(8_000.0, 0.0), Point::new(0.0, 8_000.0)];
        assert_eq!(m.obfuscate_top_set(&mech, R, &tops, &mut rng), 3, "a window close");
        assert_eq!(spare(&m), 0);
        let installed = m.install(Point::new(20_000.0, 0.0), set(&[Point::ORIGIN; 3]), R);
        assert!(installed, "a fleet install");
        assert_eq!(spare(&m), 0);
        let _ = m.candidates_for(&mech, R, Point::new(-20_000.0, 0.0), &mut rng);
        assert_eq!((m.table().len(), spare(&m)), (5, 0), "a lazy draw");
    }

    #[test]
    fn empty_table_queries() {
        let t = ObfuscationTable::default();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.get(Point::ORIGIN, R).is_none());
        assert!(!t.contains(Point::ORIGIN, R));
    }

    #[test]
    fn candidates_are_centered_near_the_top_statistically() {
        let (mech, mut m) = (mechanism(200), ObfuscationModule::default());
        let mut rng = seeded(5);
        let top = Point::new(1_000.0, -2_000.0);
        let cands = pts(m.candidates_for(&mech, R, top, &mut rng));
        let mean = privlocad_geo::centroid(&cands).unwrap();
        // With 200 candidates the sample mean should be within ~3σ/√200.
        let tol = 3.0 * mech.sigma() / (200f64).sqrt();
        assert!(mean.distance(top) < tol, "mean off by {}", mean.distance(top));
    }
}
