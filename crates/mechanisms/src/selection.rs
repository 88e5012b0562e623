//! Output selection (Algorithm 4): which of a top location's `n`
//! permanent candidates an ad request reports.
//!
//! [`PosteriorSelector`] draws from scratch over any candidate slice.
//! [`PosteriorTable`] is the serving form: one released set and its
//! posterior cumulative weights in one shared block, weighed once when the
//! set is drawn, installed or restored, so a protected top needs no cache
//! beside it and a draw is one uniform variate plus a scan of the stored
//! weights, bit-for-bit the from-scratch draw.

use std::sync::Arc;

use privlocad_geo::Point;
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
/// are therefore reported more often, while only permanent, already
/// released points are exposed. Efficacy still falls as n grows:
/// EXPERIMENTS.md measures Fig. 9 at 0.602 for n = 1 and 0.237 for n = 10
/// (0.159 under uniform selection, r = 800 m), not the flat curve the
/// paper reports. ROADMAP.md's Fig. 9 item (item 4) traces a likely cause
/// to the posterior's scale.
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
        let (mean, max) = self.mean_and_max(candidates.iter().copied());
        let two_sigma_sq = 2.0 * self.sigma * self.sigma;
        let mut total = 0.0;
        for q in candidates {
            total += (-q.distance_sq(mean) / two_sigma_sq - max).exp();
        }
        (mean, max, total)
    }

    /// The candidate mean `(x̄, ȳ)` of Equation 17 — a left fold from the
    /// origin, then one division — and the max exponent around it. Both
    /// draw paths, from scratch and from a [`PosteriorTable`], weigh their
    /// candidates from these, so they agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    fn mean_and_max(
        &self,
        candidates: impl ExactSizeIterator<Item = Point> + Clone,
    ) -> (Point, f64) {
        let n = candidates.len();
        assert!(n > 0, "candidate set must be non-empty");
        let mean = candidates.clone().sum::<Point>() / n as f64;
        let two_sigma_sq = 2.0 * self.sigma * self.sigma;
        let mut max = f64::NEG_INFINITY;
        for q in candidates {
            max = max.max(-q.distance_sq(mean) / two_sigma_sq);
        }
        (mean, max)
    }

    /// One inverse-CDF draw over the unnormalized weights.
    ///
    /// The draw accumulates the weights into a running prefix sum and
    /// returns the first index whose prefix reaches `u` — the *same*
    /// arithmetic, in the same order, as [`PosteriorTable::new`] uses to
    /// fill its cumulative weights, so this from-scratch path and
    /// [`PosteriorTable::draw`] map every RNG value to the same index
    /// bit-for-bit.
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

    /// Pairs `candidates` with their cumulative posterior weights — see
    /// [`PosteriorTable`].
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn table(&self, candidates: &[Point]) -> PosteriorTable {
        PosteriorTable::new(self, candidates.iter().copied())
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
        let table = self.table(candidates);
        table.draw_batch(count, rng, out);
    }

    fn name(&self) -> &str {
        "posterior"
    }
}

/// One released candidate set with its posterior weights: the `n`
/// permanent candidates of a top location, each paired with the running
/// sum of the Equation 18 weights up to it, in **one** shared allocation.
///
/// The paper's key design point is that a top location's `n` candidates
/// never change after their one-and-only release, and output selection is
/// pure post-processing. The cumulative weights are therefore as permanent
/// as the set and a pure function of it and σ: they are computed once,
/// when the set is drawn, installed or restored, and live beside the
/// points. A draw is one uniform variate plus a scan of the cumulative
/// weights instead of a centroid pass and `n` exponentials. Cloning a
/// table is an `Arc` bump, so a fleet authority and every edge serving the
/// user hold the same allocation.
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
///     assert_eq!(table.point(cached), candidates[fresh]);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PosteriorTable {
    entries: Arc<[(Point, f64)]>,
}

impl PosteriorTable {
    /// Pairs `candidates`, in order, with their cumulative weights under
    /// `selector`'s σ, allocating once.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn new<I>(selector: &PosteriorSelector, candidates: I) -> Self
    where
        I: IntoIterator<Item = Point>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let candidates = candidates.into_iter();
        let (mean, max) = selector.mean_and_max(candidates.clone());
        let two_sigma_sq = 2.0 * selector.sigma * selector.sigma;
        let mut acc = 0.0;
        let entries = candidates
            .map(|q| {
                acc += (-q.distance_sq(mean) / two_sigma_sq - max).exp();
                (q, acc)
            })
            .collect();
        PosteriorTable { entries }
    }

    /// Number of candidates in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` for a set of zero candidates (never constructible
    /// via [`PosteriorTable::new`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `i`-th candidate.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn point(&self, i: usize) -> Point {
        self.entries[i].0
    }

    /// The candidates, in release order.
    pub fn points(&self) -> impl ExactSizeIterator<Item = Point> + Clone + '_ {
        self.entries.iter().map(|&(q, _)| q)
    }

    /// Returns `true` while another handle to this allocation is alive
    /// (a set a fleet installed on several users or edges).
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.entries) > 1
    }

    /// The allocation's address: equal for two handles to one set, so
    /// checkpoint pools and footprints count a shared set once.
    pub fn addr(&self) -> usize {
        self.entries.as_ptr() as usize
    }

    /// Heap bytes of the allocation: the pairs plus the `Arc`'s strong and
    /// weak counts.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.entries) + 2 * std::mem::size_of::<usize>()
    }

    /// One draw: a single uniform variate, then a scan of the cumulative
    /// weights.
    ///
    /// Generic over the RNG (rather than `dyn`) so the serving hot path
    /// inlines the generator's `next_u64`; `&mut dyn RngCore` still works
    /// through the blanket `RngCore for &mut R` impl.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn draw<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let total = self.entries[self.entries.len() - 1].1;
        let u: f64 = rng.gen::<f64>() * total;
        // First index whose cumulative weight reaches u — the same
        // predicate the from-scratch linear scan evaluates. On a sorted
        // prefix-sum table that index equals the count of entries below
        // `u`, so small tables (the paper's n ≈ 10) use a branchless
        // count; both branches return identical indices.
        let idx = if self.entries.len() <= 64 {
            self.entries.iter().map(|&(_, c)| usize::from(c < u)).sum::<usize>()
        } else {
            self.entries.partition_point(|&(_, c)| c < u)
        };
        idx.min(self.entries.len() - 1)
    }

    /// Draws `count` independent selections, appending the chosen indices
    /// to `out`.
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

/// Uniform selection over the candidates — the ablation baseline for the
/// posterior selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct UniformSelector;

impl UniformSelector {
    /// Creates the uniform selector.
    pub fn new() -> Self {
        UniformSelector
    }

    /// One uniform index below `len`: the draw behind
    /// [`SelectionStrategy::select`], and a device's draw over a stored
    /// set of `len` candidates.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn draw<R: RngCore + ?Sized>(&self, len: usize, rng: &mut R) -> usize {
        assert!(len > 0, "candidate set must be non-empty");
        rng.gen_range(0..len)
    }
}

impl SelectionStrategy for UniformSelector {
    fn select(&self, candidates: &[Point], rng: &mut dyn RngCore) -> usize {
        self.draw(candidates.len(), rng)
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

    /// A candidate set the way the serving path releases one — `n` draws
    /// of the n-fold Gaussian around one top — and the selector over its σ.
    fn released_set(n: usize, seed: u64) -> (PosteriorSelector, Vec<Point>) {
        let mech =
            crate::NFoldGaussian::new(crate::GeoIndParams::new(500.0, 1.0, 0.01, n).unwrap());
        let top = Point::new(1_000.0, -2_000.0);
        (
            PosteriorSelector::new(mech.sigma()),
            crate::Lppm::obfuscate(&mech, top, &mut seeded(seed)),
        )
    }

    #[test]
    fn cached_table_matches_uncached_select_stream() {
        // The determinism contract: a draw from the set's stored weights
        // and the from-scratch linear scan pick the same index for every
        // seed, on the paper's n, the edge cases n = 1, 2, and n = 65,
        // where the draw leaves the branchless count for `partition_point`.
        for n in [1, 2, 10, 65] {
            let (sel, cands) = released_set(n, n as u64);
            let table = sel.table(&cands);
            assert_eq!(table.len(), n);
            assert!(!table.is_empty());
            assert!(table.points().eq(cands.iter().copied()), "n {n}: points kept in order");
            for seed in 0..1_000 {
                let cached = table.draw(&mut seeded(seed));
                let fresh = sel.select(&cands, &mut seeded(seed));
                assert_eq!(cached, fresh, "n {n} seed {seed}");
                assert_eq!(table.point(cached), cands[fresh]);
            }
            // And over one long stream, draw after draw.
            let mut cached_rng = seeded(7_000 + n as u64);
            let mut fresh_rng = seeded(7_000 + n as u64);
            for step in 0..2_000 {
                let cached = table.draw(&mut cached_rng);
                assert_eq!(cached, sel.select(&cands, &mut fresh_rng), "n {n} step {step}");
            }
        }
    }

    #[test]
    fn table_draw_batch_matches_select_batch() {
        let sel = PosteriorSelector::new(400.0);
        for n in [1, 2, 10, 65] {
            let (_, cands) = released_set(n, 90 + n as u64);
            let table = sel.table(&cands);
            let mut a = Vec::new();
            table.draw_batch(500, &mut seeded(5), &mut a);
            let mut b = Vec::new();
            sel.select_batch(&cands, 500, &mut seeded(5), &mut b);
            assert_eq!(a, b, "n {n}");
        }
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

    /// The cumulative weights of `table`, in candidate order.
    fn cdf(table: &PosteriorTable) -> Vec<f64> {
        table.entries.iter().map(|&(_, c)| c).collect()
    }

    #[test]
    fn table_cdf_round_trips_bit_for_bit() {
        // A checkpoint carries the points only; the restore recomputes the
        // weights from them and must land on the live set's bits exactly.
        let sel = PosteriorSelector::new(500.0);
        let table = sel.table(&released_set(10, 3).1);
        let rebuilt = PosteriorTable::new(&sel, table.points());
        let bits = |t: &PosteriorTable| cdf(t).into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(&rebuilt), bits(&table));
        assert_eq!(rebuilt, table);
        for seed in 0..32 {
            assert_eq!(rebuilt.draw(&mut seeded(seed)), table.draw(&mut seeded(seed)));
        }
    }

    #[test]
    fn cache_entries_and_install_round_trip() {
        // A set holds its cumulative weights: the last one is the set's
        // total weight, the weights never decrease, and the first is the
        // first candidate's own weight.
        let sel = PosteriorSelector::new(500.0);
        let cands = [Point::new(0.0, 0.0), Point::new(200.0, 0.0), Point::new(0.0, 650.0)];
        let cdf = cdf(&sel.table(&cands));
        let probs = sel.probabilities(&cands);
        let total = cdf[cdf.len() - 1];
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        for (i, p) in probs.iter().enumerate() {
            let weight = cdf[i] - if i == 0 { 0.0 } else { cdf[i - 1] };
            assert!((weight / total - p).abs() < 1e-12, "candidate {i}");
        }
    }

    #[test]
    fn install_shared_hands_out_the_same_allocation() {
        // A fleet hands every edge a clone of one table: one allocation,
        // drawing exactly what a per-edge rebuild would.
        let sel = PosteriorSelector::new(500.0);
        let cands = [Point::new(0.0, 0.0), Point::new(200.0, 0.0)];
        let shared = sel.table(&cands);
        assert!(!shared.is_shared());
        let a = shared.clone();
        let b = shared.clone();
        assert!(shared.is_shared() && a.is_shared());
        assert_eq!((a.addr(), b.addr()), (shared.addr(), shared.addr()));
        let rebuilt = sel.table(&cands);
        assert_ne!(rebuilt.addr(), shared.addr());
        assert_eq!(a, rebuilt);
        assert_eq!(shared.heap_bytes(), 2 * 24 + 16);
        drop((a, b));
        assert!(!shared.is_shared());
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
