use std::sync::Arc;

use privlocad_geo::{centroid, Point};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// A strategy for choosing which of the `n` permanent candidates to report
/// for a single ad request.
///
/// Selection happens *after* the privacy mechanism has released the
/// candidate set, so any strategy is post-processing and costs no privacy
/// (Theorem 1's post-processing direction).
pub trait SelectionStrategy: Send + Sync {
    /// Returns the index of the candidate to report.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `candidates` is empty.
    fn select(&self, candidates: &[Point], rng: &mut dyn RngCore) -> usize;

    /// Draws `count` independent selections from the same candidate set,
    /// appending the chosen indices to `out`.
    ///
    /// Equivalent to `count` calls of [`SelectionStrategy::select`] with
    /// the same RNG; implementations may amortize per-set work (the
    /// posterior selector computes its weights once per batch instead of
    /// once per draw).
    fn select_batch(
        &self,
        candidates: &[Point],
        count: usize,
        rng: &mut dyn RngCore,
        out: &mut Vec<usize>,
    ) {
        out.reserve(count);
        for _ in 0..count {
            out.push(self.select(candidates, rng));
        }
    }

    /// A short human-readable strategy name.
    fn name(&self) -> &str;
}

/// The paper's posterior-based output selection (Algorithm 4).
///
/// Given candidates `q₁, …, q_n`, the posterior density of the real
/// location is a Gaussian centered at the candidate mean `(x̄, ȳ)`
/// (Equation 17); each candidate is drawn with probability proportional to
/// its posterior density (Equation 18):
/// `Pr[A = qᵢ] = f(xᵢ, yᵢ) / Σₖ f(xₖ, yₖ)`.
///
/// Candidates close to the mean — the best guess of the true location —
/// are therefore reported more often, which keeps advertising efficacy
/// nearly flat as n grows (Fig. 9) while still exposing only permanent,
/// already-released points.
///
/// # Examples
///
/// ```
/// use privlocad_geo::{rng::seeded, Point};
/// use privlocad_mechanisms::{PosteriorSelector, SelectionStrategy};
///
/// let sel = PosteriorSelector::new(1_000.0);
/// let candidates = [Point::new(0.0, 0.0), Point::new(50.0, 0.0), Point::new(8_000.0, 0.0)];
/// let mut rng = seeded(4);
/// let idx = sel.select(&candidates, &mut rng);
/// assert!(idx < candidates.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PosteriorSelector {
    sigma: f64,
}

impl PosteriorSelector {
    /// Creates a selector using the mechanism's noise deviation σ.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not positive and finite.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive and finite");
        PosteriorSelector { sigma }
    }

    /// The σ parameter of the posterior density.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The normalized selection probabilities over `candidates`
    /// (Equation 18).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    // lint:allow(dead-pub): integration-test hook: the mechanisms proptests and core's selection tests check Equation 18 through it
    pub fn probabilities(&self, candidates: &[Point]) -> Vec<f64> {
        let mut out = Vec::with_capacity(candidates.len());
        self.probabilities_into(candidates, &mut out);
        out
    }

    /// Appends the normalized selection probabilities over `candidates` to
    /// `out` — the buffer-reusing variant of
    /// [`PosteriorSelector::probabilities`] for hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    fn probabilities_into(&self, candidates: &[Point], out: &mut Vec<f64>) {
        let (mean, max, total) = self.weight_stats(candidates);
        let two_sigma_sq = 2.0 * self.sigma * self.sigma;
        out.reserve(candidates.len());
        out.extend(
            candidates.iter().map(|q| (-q.distance_sq(mean) / two_sigma_sq - max).exp() / total),
        );
    }

    /// Streams over `candidates` and returns `(mean, max exponent, total
    /// weight)` — everything needed to evaluate any candidate's
    /// unnormalized posterior weight without allocating.
    ///
    /// exp of large negative numbers can underflow to zero for distant
    /// candidates; the max exponent is subtracted before exponentiation
    /// for numerical stability.
    fn weight_stats(&self, candidates: &[Point]) -> (Point, f64, f64) {
        // lint:allow(panic-hygiene): provably infallible — callers pass the mechanism output set, which has n >= 1 points
        let mean = centroid(candidates).expect("candidate set must be non-empty");
        let two_sigma_sq = 2.0 * self.sigma * self.sigma;
        let mut max = f64::NEG_INFINITY;
        for q in candidates {
            max = max.max(-q.distance_sq(mean) / two_sigma_sq);
        }
        let mut total = 0.0;
        for q in candidates {
            total += (-q.distance_sq(mean) / two_sigma_sq - max).exp();
        }
        (mean, max, total)
    }

    /// One inverse-CDF draw over the unnormalized weights.
    ///
    /// The draw accumulates the weights into a running prefix sum and
    /// returns the first index whose prefix reaches `u` — the *same*
    /// arithmetic, in the same order, as [`PosteriorTable::new`] uses to
    /// fill its cumulative table, so this from-scratch path and the
    /// cached [`PosteriorTable::draw`] map every RNG value to the same
    /// index bit-for-bit.
    fn draw(
        &self,
        candidates: &[Point],
        mean: Point,
        max: f64,
        total: f64,
        rng: &mut dyn RngCore,
    ) -> usize {
        let two_sigma_sq = 2.0 * self.sigma * self.sigma;
        let u: f64 = rng.gen::<f64>() * total;
        let mut acc = 0.0;
        for (i, q) in candidates.iter().enumerate() {
            acc += (-q.distance_sq(mean) / two_sigma_sq - max).exp();
            if u <= acc {
                return i;
            }
        }
        candidates.len() - 1
    }

    /// Precomputes the cumulative weight table over `candidates` for
    /// repeated draws — see [`PosteriorTable`].
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn table(&self, candidates: &[Point]) -> PosteriorTable {
        PosteriorTable::new(self, candidates)
    }
}

impl SelectionStrategy for PosteriorSelector {
    fn select(&self, candidates: &[Point], rng: &mut dyn RngCore) -> usize {
        let (mean, max, total) = self.weight_stats(candidates);
        self.draw(candidates, mean, max, total, rng)
    }

    fn select_batch(
        &self,
        candidates: &[Point],
        count: usize,
        rng: &mut dyn RngCore,
        out: &mut Vec<usize>,
    ) {
        // One cumulative table per batch: draws become binary searches and
        // stay bit-for-bit identical to repeated `select` calls.
        let table = PosteriorTable::new(self, candidates);
        table.draw_batch(count, rng, out);
    }

    fn name(&self) -> &str {
        "posterior"
    }
}

/// A precomputed inverse-CDF table for posterior selection over one
/// *permanent* candidate set (the serving-path cache of Algorithm 4).
///
/// The paper's key design point is that a top location's `n` candidates
/// never change after their one-and-only release, and output selection is
/// pure post-processing — so the per-candidate `exp()` posterior weights
/// can be computed once and reused for every subsequent ad request at
/// zero privacy cost. A cached draw is one uniform variate plus a binary
/// search over the cumulative weights instead of a centroid pass and `n`
/// exponentials.
///
/// Determinism contract: [`PosteriorTable::draw`] consumes exactly one
/// `rng.gen::<f64>()` and maps it to the same index as
/// [`PosteriorSelector::select`] over the same candidates, bit-for-bit —
/// both build the identical prefix-sum sequence in the identical order.
///
/// # Examples
///
/// ```
/// use privlocad_geo::{rng::seeded, Point};
/// use privlocad_mechanisms::{PosteriorSelector, PosteriorTable, SelectionStrategy};
///
/// let sel = PosteriorSelector::new(500.0);
/// let candidates = [Point::new(0.0, 0.0), Point::new(400.0, 0.0), Point::new(0.0, 900.0)];
/// let table = sel.table(&candidates);
/// for seed in 0..16 {
///     let cached = table.draw(&mut seeded(seed));
///     let fresh = sel.select(&candidates, &mut seeded(seed));
///     assert_eq!(cached, fresh);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PosteriorTable {
    cdf: Vec<f64>,
}

impl PosteriorTable {
    /// Builds the cumulative table for `candidates` under `selector`'s σ.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn new(selector: &PosteriorSelector, candidates: &[Point]) -> Self {
        let (mean, max, _total) = selector.weight_stats(candidates);
        let two_sigma_sq = 2.0 * selector.sigma * selector.sigma;
        let mut acc = 0.0;
        let cdf = candidates
            .iter()
            .map(|q| {
                acc += (-q.distance_sq(mean) / two_sigma_sq - max).exp();
                acc
            })
            .collect();
        PosteriorTable { cdf }
    }

    /// The cumulative weight entries, for checkpointing: a table rebuilt
    /// with [`PosteriorTable::from_cdf`] from these exact values maps
    /// every RNG draw to the same index bit-for-bit.
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// Rebuilds a table from captured [`PosteriorTable::cdf`] entries.
    ///
    /// Returns `None` unless `cdf` is a valid cumulative weight table:
    /// non-empty, finite, non-decreasing, with a positive total — the
    /// invariants [`PosteriorTable::new`] guarantees and
    /// [`PosteriorTable::draw`] relies on.
    pub fn from_cdf(cdf: Vec<f64>) -> Option<Self> {
        let last = *cdf.last()?;
        if !(last.is_finite() && last > 0.0) {
            return None;
        }
        if cdf.iter().any(|c| !c.is_finite()) || cdf.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        Some(PosteriorTable { cdf })
    }

    /// Number of candidates the table covers.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` for a table over zero candidates (never
    /// constructible via [`PosteriorTable::new`]).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// One cached draw: a single uniform variate, then a binary search
    /// over the cumulative weights.
    ///
    /// Generic over the RNG (rather than `dyn`) so the serving hot path
    /// inlines the generator's `next_u64`; `&mut dyn RngCore` still works
    /// through the blanket `RngCore for &mut R` impl.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn draw<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let total = self.cdf[self.cdf.len() - 1];
        let u: f64 = rng.gen::<f64>() * total;
        // First index whose cumulative weight reaches u — the same
        // predicate the from-scratch linear scan evaluates. On a sorted
        // prefix-sum table that index equals the count of entries below
        // `u`, so small tables (the paper's n ≈ 10) use a branchless
        // count; both branches return identical indices.
        let idx = if self.cdf.len() <= 64 {
            self.cdf.iter().map(|&c| usize::from(c < u)).sum::<usize>()
        } else {
            self.cdf.partition_point(|&c| c < u)
        };
        idx.min(self.cdf.len() - 1)
    }

    /// Draws `count` independent cached selections, appending the chosen
    /// indices to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    fn draw_batch<R: RngCore + ?Sized>(&self, count: usize, rng: &mut R, out: &mut Vec<usize>) {
        out.reserve(count);
        for _ in 0..count {
            out.push(self.draw(rng));
        }
    }
}

/// A per-user memo of [`PosteriorTable`]s keyed by top location — the
/// edge device's posterior-weight cache.
///
/// Entries are built once per `(top location, candidate set)` pair —
/// either eagerly when protection is installed or lazily on the first ad
/// request — and reused for every later request at that top.
/// [`SelectionCache::invalidate`] drops everything; because the tables
/// are pure post-processing state derived from permanent candidates,
/// invalidation can never change outputs, only cost.
///
/// Tables are held behind `Arc` so a fleet-level install can build each
/// table *once* and hand every edge the same allocation
/// ([`SelectionCache::install_shared`]); a table is a pure deterministic
/// function of `(candidates, σ)`, so sharing one instead of rebuilding
/// per edge cannot change any draw.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SelectionCache {
    entries: Vec<(Point, Arc<PosteriorTable>)>,
}

impl SelectionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SelectionCache::default()
    }

    /// Number of cached top locations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every cached table (e.g. when a profile window closes and
    /// the top set — the cache keys — may drift).
    pub fn invalidate(&mut self) {
        self.entries.clear();
    }

    /// The cached table for `top`, if one was built.
    pub fn get(&self, top: Point) -> Option<&PosteriorTable> {
        self.entries.iter().find(|(t, _)| *t == top).map(|(_, table)| &**table)
    }

    /// Iterates the cached `(top, table)` pairs in insertion order, for
    /// checkpointing.
    pub fn entries(&self) -> impl Iterator<Item = (Point, &PosteriorTable)> {
        self.entries.iter().map(|(top, table)| (*top, &**table))
    }

    /// Iterates the entries with their shared table handles — checkpoint
    /// capture and footprint accounting dedup by `Arc` identity so a
    /// table shared across users is serialized (and counted) once.
    pub fn shared_entries(&self) -> impl Iterator<Item = (Point, &Arc<PosteriorTable>)> {
        self.entries.iter().map(|(top, table)| (*top, table))
    }

    /// Installs a restored table for `top`, replacing any existing entry
    /// with that exact key — the checkpoint-restore counterpart of
    /// [`SelectionCache::table_for`].
    pub fn install(&mut self, top: Point, table: PosteriorTable) {
        self.install_shared(top, Arc::new(table));
    }

    /// [`SelectionCache::install`] for a table that is already shared —
    /// the fleet install path, where one `Arc<PosteriorTable>` built at
    /// the authority is handed to every edge without a rebuild.
    pub fn install_shared(&mut self, top: Point, table: Arc<PosteriorTable>) {
        match self.entries.iter().position(|(t, _)| *t == top) {
            Some(i) => self.entries[i].1 = table,
            None => self.entries.push((top, table)),
        }
    }

    /// The table for `top`, building and memoizing it from `candidates`
    /// on first use.
    ///
    /// Keys match by exact coordinates (cache identity, not geometry):
    /// `top` always comes from the user's current top set, and a drifted
    /// centroid simply builds a fresh entry over the same permanent
    /// candidates.
    ///
    /// # Panics
    ///
    /// Panics if a new entry must be built from empty `candidates`.
    pub fn table_for(
        &mut self,
        top: Point,
        selector: &PosteriorSelector,
        candidates: &[Point],
    ) -> &PosteriorTable {
        self.lookup_or_build(top, selector, candidates).1
    }

    /// [`SelectionCache::table_for`] that also reports whether the lookup
    /// was a cache hit (`true`) or had to build the table (`false`) — the
    /// hook the telemetry layer counts posterior-cache hit/miss rates
    /// with. On a hit, `candidates` is not consulted.
    ///
    /// # Panics
    ///
    /// Panics if a new entry must be built from empty `candidates`.
    pub fn lookup_or_build(
        &mut self,
        top: Point,
        selector: &PosteriorSelector,
        candidates: &[Point],
    ) -> (bool, &PosteriorTable) {
        match self.entries.iter().position(|(t, _)| *t == top) {
            Some(i) => (true, &*self.entries[i].1),
            None => {
                self.entries.push((top, Arc::new(PosteriorTable::new(selector, candidates))));
                (false, &*self.entries[self.entries.len() - 1].1)
            }
        }
    }
}

/// Uniform selection over the candidates — the ablation baseline for the
/// posterior selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct UniformSelector;

impl UniformSelector {
    /// Creates the uniform selector.
    pub fn new() -> Self {
        UniformSelector
    }
}

impl SelectionStrategy for UniformSelector {
    fn select(&self, candidates: &[Point], rng: &mut dyn RngCore) -> usize {
        assert!(!candidates.is_empty(), "candidate set must be non-empty");
        rng.gen_range(0..candidates.len())
    }

    fn name(&self) -> &str {
        "uniform"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_geo::rng::seeded;

    #[test]
    fn probabilities_sum_to_one() {
        let sel = PosteriorSelector::new(500.0);
        let cands = [
            Point::new(0.0, 0.0),
            Point::new(100.0, 50.0),
            Point::new(-300.0, 800.0),
            Point::new(2_000.0, -1_000.0),
        ];
        let p = sel.probabilities(&cands);
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn candidate_nearest_mean_is_most_likely() {
        let sel = PosteriorSelector::new(500.0);
        // Mean is ~ (525, 0); candidate 1 is closest to it.
        let cands = [Point::new(0.0, 0.0), Point::new(600.0, 0.0), Point::new(1_500.0, 0.0)];
        let p = sel.probabilities(&cands);
        assert!(p[1] > p[0] && p[1] > p[2], "{p:?}");
    }

    #[test]
    fn equidistant_candidates_equally_likely() {
        let sel = PosteriorSelector::new(300.0);
        // Symmetric around the mean (0, 0).
        let cands = [Point::new(-100.0, 0.0), Point::new(100.0, 0.0)];
        let p = sel.probabilities(&cands);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_candidate_always_selected() {
        let sel = PosteriorSelector::new(100.0);
        let mut rng = seeded(1);
        assert_eq!(sel.select(&[Point::ORIGIN], &mut rng), 0);
    }

    #[test]
    fn empirical_selection_matches_probabilities() {
        let sel = PosteriorSelector::new(500.0);
        let cands = [Point::new(0.0, 0.0), Point::new(400.0, 0.0), Point::new(0.0, 900.0)];
        let probs = sel.probabilities(&cands);
        let mut rng = seeded(33);
        let trials = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..trials {
            counts[sel.select(&cands, &mut rng)] += 1;
        }
        for i in 0..3 {
            let freq = counts[i] as f64 / trials as f64;
            assert!((freq - probs[i]).abs() < 0.01, "i={i} freq={freq} prob={}", probs[i]);
        }
    }

    #[test]
    fn far_outlier_gets_negligible_probability() {
        let sel = PosteriorSelector::new(200.0);
        let cands = [Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(50_000.0, 0.0)];
        let p = sel.probabilities(&cands);
        assert!(p[2] < 1e-6, "{p:?}");
    }

    #[test]
    fn numerical_stability_with_huge_distances() {
        let sel = PosteriorSelector::new(1.0);
        let cands = [Point::new(0.0, 0.0), Point::new(1e6, 0.0)];
        let p = sel.probabilities(&cands);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_selector_is_uniform() {
        let sel = UniformSelector::new();
        let cands = [Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let mut rng = seeded(9);
        let trials = 30_000;
        let mut counts = [0usize; 3];
        for _ in 0..trials {
            counts[sel.select(&cands, &mut rng)] += 1;
        }
        for c in counts {
            let freq = c as f64 / trials as f64;
            assert!((freq - 1.0 / 3.0).abs() < 0.02, "{counts:?}");
        }
    }

    #[test]
    fn select_batch_matches_repeated_select() {
        let cands = [Point::new(0.0, 0.0), Point::new(400.0, 0.0), Point::new(0.0, 900.0)];
        let posterior = PosteriorSelector::new(500.0);
        let uniform = UniformSelector::new();
        for strategy in [&posterior as &dyn SelectionStrategy, &uniform] {
            let mut serial = Vec::new();
            let mut rng = seeded(77);
            for _ in 0..200 {
                serial.push(strategy.select(&cands, &mut rng));
            }
            let mut batched = Vec::new();
            let mut rng = seeded(77);
            strategy.select_batch(&cands, 200, &mut rng, &mut batched);
            assert_eq!(serial, batched, "strategy {}", strategy.name());
        }
    }

    #[test]
    fn probabilities_into_appends() {
        let sel = PosteriorSelector::new(500.0);
        let cands = [Point::new(0.0, 0.0), Point::new(100.0, 0.0)];
        let mut out = vec![0.25];
        sel.probabilities_into(&cands, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], 0.25);
        assert!((out[1] + out[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cached_table_matches_uncached_select_stream() {
        // The determinism contract: over long RNG streams the cached
        // binary-search draw and the from-scratch linear scan pick the
        // same index every single time.
        let sel = PosteriorSelector::new(500.0);
        let sets: Vec<Vec<Point>> = vec![
            vec![Point::ORIGIN],
            vec![Point::new(-100.0, 0.0), Point::new(100.0, 0.0)],
            vec![Point::new(0.0, 0.0), Point::new(400.0, 0.0), Point::new(0.0, 900.0)],
            (0..50).map(|i| Point::new(f64::from(i) * 37.0, f64::from(i % 7) * 91.0)).collect(),
        ];
        for (k, cands) in sets.iter().enumerate() {
            let table = sel.table(cands);
            assert_eq!(table.len(), cands.len());
            assert!(!table.is_empty());
            let mut cached_rng = seeded(1_000 + k as u64);
            let mut fresh_rng = seeded(1_000 + k as u64);
            for step in 0..5_000 {
                let cached = table.draw(&mut cached_rng);
                let fresh = sel.select(cands, &mut fresh_rng);
                assert_eq!(cached, fresh, "set {k} step {step}");
            }
        }
    }

    #[test]
    fn table_draw_batch_matches_select_batch() {
        let sel = PosteriorSelector::new(400.0);
        let cands = [Point::new(0.0, 0.0), Point::new(300.0, 0.0), Point::new(0.0, 600.0)];
        let table = sel.table(&cands);
        let mut a = Vec::new();
        table.draw_batch(500, &mut seeded(5), &mut a);
        let mut b = Vec::new();
        sel.select_batch(&cands, 500, &mut seeded(5), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn selection_cache_memoizes_and_invalidates() {
        let sel = PosteriorSelector::new(500.0);
        let cands = [Point::new(0.0, 0.0), Point::new(200.0, 0.0)];
        let top = Point::new(10.0, 10.0);
        let mut cache = SelectionCache::new();
        assert!(cache.is_empty());
        assert!(cache.get(top).is_none());
        let built = cache.table_for(top, &sel, &cands).clone();
        assert_eq!(cache.len(), 1);
        // Second lookup returns the memoized table without rebuilding
        // (pass empty candidates: a rebuild would panic).
        let again = cache.table_for(top, &sel, &[]).clone();
        assert_eq!(built, again);
        assert_eq!(cache.get(top), Some(&built));
        // A different key builds its own entry.
        cache.table_for(Point::new(9_000.0, 0.0), &sel, &cands);
        assert_eq!(cache.len(), 2);
        cache.invalidate();
        assert!(cache.is_empty());
    }

    #[test]
    fn lookup_or_build_reports_hits_and_misses() {
        let sel = PosteriorSelector::new(500.0);
        let cands = [Point::new(0.0, 0.0), Point::new(200.0, 0.0)];
        let top = Point::new(10.0, 10.0);
        let mut cache = SelectionCache::new();
        let (hit, built) = cache.lookup_or_build(top, &sel, &cands);
        let built = built.clone();
        assert!(!hit);
        // Hit path never consults candidates (empty would panic on build).
        let (hit, again) = cache.lookup_or_build(top, &sel, &[]);
        assert!(hit);
        assert_eq!(*again, built);
        // Invalidation turns the next lookup back into a miss.
        cache.invalidate();
        let (hit, _) = cache.lookup_or_build(top, &sel, &cands);
        assert!(!hit);
    }

    #[test]
    fn cached_draws_follow_the_posterior_distribution() {
        let sel = PosteriorSelector::new(500.0);
        let cands = [Point::new(0.0, 0.0), Point::new(400.0, 0.0), Point::new(0.0, 900.0)];
        let probs = sel.probabilities(&cands);
        let table = sel.table(&cands);
        let mut rng = seeded(44);
        let trials = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..trials {
            counts[table.draw(&mut rng)] += 1;
        }
        for i in 0..3 {
            let freq = counts[i] as f64 / trials as f64;
            assert!((freq - probs[i]).abs() < 0.01, "i={i} freq={freq} prob={}", probs[i]);
        }
    }

    #[test]
    fn table_cdf_round_trips_bit_for_bit() {
        let sel = PosteriorSelector::new(500.0);
        let cands = [Point::new(0.0, 0.0), Point::new(400.0, 0.0), Point::new(0.0, 900.0)];
        let table = sel.table(&cands);
        let restored = PosteriorTable::from_cdf(table.cdf().to_vec()).unwrap();
        assert_eq!(restored, table);
        for seed in 0..32 {
            assert_eq!(restored.draw(&mut seeded(seed)), table.draw(&mut seeded(seed)));
        }
    }

    #[test]
    fn from_cdf_rejects_invalid_tables() {
        assert!(PosteriorTable::from_cdf(vec![]).is_none());
        assert!(PosteriorTable::from_cdf(vec![0.0]).is_none());
        assert!(PosteriorTable::from_cdf(vec![1.0, f64::NAN]).is_none());
        assert!(PosteriorTable::from_cdf(vec![1.0, f64::INFINITY]).is_none());
        assert!(PosteriorTable::from_cdf(vec![2.0, 1.0]).is_none());
        assert!(PosteriorTable::from_cdf(vec![1.0, 1.0, 3.0]).is_some());
    }

    #[test]
    fn cache_entries_and_install_round_trip() {
        let sel = PosteriorSelector::new(500.0);
        let cands = [Point::new(0.0, 0.0), Point::new(200.0, 0.0)];
        let mut cache = SelectionCache::new();
        cache.table_for(Point::new(1.0, 1.0), &sel, &cands);
        cache.table_for(Point::new(9_000.0, 0.0), &sel, &cands);
        let mut restored = SelectionCache::new();
        for (top, table) in cache.entries() {
            restored.install(top, table.clone());
        }
        assert_eq!(restored, cache);
        // Install replaces on key collision rather than duplicating.
        let replacement = PosteriorTable::from_cdf(vec![1.0]).unwrap();
        restored.install(Point::new(1.0, 1.0), replacement.clone());
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.get(Point::new(1.0, 1.0)), Some(&replacement));
    }

    #[test]
    fn install_shared_hands_out_the_same_allocation() {
        let sel = PosteriorSelector::new(500.0);
        let cands = [Point::new(0.0, 0.0), Point::new(200.0, 0.0)];
        let top = Point::new(3.0, 4.0);
        let shared = std::sync::Arc::new(sel.table(&cands));
        let mut a = SelectionCache::new();
        let mut b = SelectionCache::new();
        a.install_shared(top, std::sync::Arc::clone(&shared));
        b.install_shared(top, std::sync::Arc::clone(&shared));
        // Both caches draw identically to a per-edge rebuild...
        let mut rebuilt = SelectionCache::new();
        rebuilt.table_for(top, &sel, &cands);
        assert_eq!(a, rebuilt);
        assert_eq!(b, rebuilt);
        // ...without having built anything: three handles, one table.
        assert_eq!(std::sync::Arc::strong_count(&shared), 3);
        // Replacement on key collision still holds for the shared path.
        a.install_shared(top, std::sync::Arc::new(PosteriorTable::from_cdf(vec![1.0]).unwrap()));
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(top).unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn rejects_bad_sigma() {
        let _ = PosteriorSelector::new(-1.0);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(PosteriorSelector::new(1.0).name(), "posterior");
        assert_eq!(UniformSelector::new().name(), "uniform");
    }
}
