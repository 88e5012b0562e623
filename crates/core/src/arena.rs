//! The candidate arena: reusable batched-generation buffers plus the
//! staged, shared `(top, candidate set)` pairs a fleet install distributes
//! to its edges.
//!
//! The pre-arena install path paid, **per edge**: one `Vec` clone of every
//! candidate set plus one posterior-weight pass (`n` exponentials). The
//! arena moves all of that to the authority: candidates are drawn once
//! through the batched lane kernel, and each set lands beside its posterior
//! weights in one [`PosteriorTable`] allocation — edges then install `Arc`
//! handles. Because a candidate set is permanent and its weights are a pure
//! deterministic function of the set and σ, sharing the allocation cannot
//! change any reported location.

use privlocad_geo::Point;
use privlocad_mechanisms::{BatchScratch, CandidateLanes, NFoldGaussian, PosteriorTable};

use crate::ObfuscationModule;

/// One staged install unit: a queried top location and the shared
/// permanent candidate set covering it, weights included.
#[derive(Debug, Clone)]
pub struct PreparedSet {
    top: Point,
    candidates: PosteriorTable,
}

impl PreparedSet {
    /// The top location this set was staged for (the *queried* top; the
    /// covering table anchor may differ by centroid drift).
    pub fn top(&self) -> Point {
        self.top
    }

    /// The shared permanent candidate set.
    pub fn candidates(&self) -> &PosteriorTable {
        &self.candidates
    }
}

/// Reusable staging area for fleet-wide protection installs.
///
/// Holds the batched-generation scratch (uniform/angle/radius lanes) and
/// the staged [`PreparedSet`]s of the current install; both keep their
/// allocations across [`CandidateArena::prepare`] calls, so a long-running
/// fleet closes windows with zero steady-state allocation beyond the
/// permanent sets themselves.
#[derive(Debug, Default)]
pub struct CandidateArena {
    scratch: BatchScratch,
    lanes: CandidateLanes,
    sets: Vec<PreparedSet>,
}

impl CandidateArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        CandidateArena::default()
    }

    /// Ensures `authority` covers every location of `tops` within
    /// `match_radius_m` meters (batched generation from `mechanism`, one
    /// derived stream per fresh `(window, top)` pair via
    /// `master`/`pair_counter` — see
    /// [`ObfuscationModule::obfuscate_top_set_derived`]), then stages one
    /// [`PreparedSet`] per queried top: a handle to the covering set.
    /// Returns the number of freshly generated sets.
    pub fn prepare(
        &mut self,
        authority: &mut ObfuscationModule,
        mechanism: &NFoldGaussian,
        match_radius_m: f64,
        tops: &[Point],
        master: u64,
        pair_counter: &mut u64,
    ) -> usize {
        self.sets.clear();
        let fresh = authority.obfuscate_top_set_derived(
            mechanism,
            match_radius_m,
            tops,
            master,
            pair_counter,
            &mut self.scratch,
            &mut self.lanes,
        );
        for &top in tops {
            let candidates = authority
                .table()
                .get(top, match_radius_m)
                // lint:allow(panic-hygiene): provably infallible — obfuscate_top_set_derived just covered every queried top
                .expect("top covered after batched obfuscation")
                .clone();
            self.sets.push(PreparedSet { top, candidates });
        }
        fresh
    }

    /// The staged sets of the latest [`CandidateArena::prepare`] call.
    pub fn sets(&self) -> &[PreparedSet] {
        &self.sets
    }

    /// Number of staged sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Returns `true` when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Split-borrow access to the generation buffers, for install paths
    /// that batch candidates without staging shared sets (an edge device's
    /// own window close).
    pub(crate) fn buffers(&mut self) -> (&mut BatchScratch, &mut CandidateLanes) {
        (&mut self.scratch, &mut self.lanes)
    }

    /// Accounts the staged shared sets into `fp` with caller-owned dedup
    /// state — the fleet-footprint leg that covers sets the staging area
    /// keeps alive. Sets already counted through a device that installed
    /// them (the common case) dedup to zero extra bytes.
    pub(crate) fn accumulate_footprint(
        &self,
        fp: &mut crate::StateFootprint,
        seen_sets: &mut std::collections::BTreeSet<usize>,
    ) {
        for set in &self.sets {
            if seen_sets.insert(set.candidates.addr()) {
                fp.distinct_candidate_sets += 1;
                fp.shared_bytes += set.candidates.heap_bytes() as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_geo::rng::{derive_seed, seeded};
    use privlocad_mechanisms::{GeoIndParams, Lppm, PosteriorSelector};

    /// The fleet's n-fold mechanism at `n` candidates.
    fn mechanism(n: usize) -> NFoldGaussian {
        NFoldGaussian::new(GeoIndParams::new(500.0, 1.0, 0.01, n).unwrap())
    }

    #[test]
    fn prepare_stages_every_queried_top_with_shared_tables() {
        let (mech, mut auth) = (mechanism(6), ObfuscationModule::default());
        let mut arena = CandidateArena::new();
        let mut counter = 0u64;
        // Two distant tops plus a drifted duplicate of the first.
        let tops = [Point::new(0.0, 0.0), Point::new(9_000.0, 0.0), Point::new(12.0, 5.0)];
        let fresh = arena.prepare(&mut auth, &mech, 200.0, &tops, 7, &mut counter);
        assert_eq!(fresh, 2);
        assert_eq!(counter, 2);
        assert_eq!(arena.len(), 3);
        assert!(!arena.is_empty());
        // The drifted duplicate shares set 0's allocation, weights included.
        let sets = arena.sets();
        assert_eq!(sets[0].candidates().addr(), sets[2].candidates().addr());
        assert_ne!(sets[0].candidates().addr(), sets[1].candidates().addr());
        // Candidates match the derived-stream scalar reference.
        for (k, set) in sets[..2].iter().enumerate() {
            let mut rng = seeded(derive_seed(7, k as u64));
            let points: Vec<Point> = set.candidates().points().collect();
            assert_eq!(points, mech.obfuscate(set.top(), &mut rng));
        }
        // And each set's weights are exactly the per-edge build they replace.
        let selector = PosteriorSelector::new(mech.sigma());
        for set in sets {
            let points: Vec<Point> = set.candidates().points().collect();
            assert_eq!(*set.candidates(), selector.table(&points));
        }
    }

    #[test]
    fn prepare_is_permanent_across_calls() {
        let (mech, mut auth) = (mechanism(4), ObfuscationModule::default());
        let mut arena = CandidateArena::new();
        let mut counter = 0u64;
        let tops = [Point::new(0.0, 0.0)];
        arena.prepare(&mut auth, &mech, 200.0, &tops, 3, &mut counter);
        let first = arena.sets()[0].candidates().clone();
        // Second window: the same top generates nothing new and re-stages
        // the same permanent allocation.
        let fresh = arena.prepare(&mut auth, &mech, 200.0, &tops, 3, &mut counter);
        assert_eq!(fresh, 0);
        assert_eq!(counter, 1);
        assert_eq!(arena.sets()[0].candidates().addr(), first.addr());
    }
}
