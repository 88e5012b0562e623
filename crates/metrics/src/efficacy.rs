//! The advertising efficacy metric (Definition 5).
//!
//! `AE = Pr[ad ∈ AOI | ad ∈ AOR]`: when the system requests ads from an
//! obfuscated location (the AOR), how likely is a returned ad to actually
//! lie in the user's true area of interest? With equal AOI/AOR radii and
//! ads uniform over the AOR, this equals the lens overlap divided by the
//! disc area — computed exactly per trial, with a sampled variant matching
//! the paper's described Monte-Carlo procedure.

use privlocad_geo::{Circle, Point};
use privlocad_mechanisms::{Lppm, SelectionStrategy};

use crate::montecarlo::Fanout;
use crate::utilization::analytic;

/// Runs `trials` end-to-end releases (mechanism + output selection, true
/// location at the origin) and returns the per-trial efficacy, computed
/// exactly from the selected candidate's lens overlap.
///
/// # Panics
///
/// Panics if `targeting_radius_m` is not positive and finite.
pub fn measure(
    mech: &dyn Lppm,
    selector: &dyn SelectionStrategy,
    targeting_radius_m: f64,
    trials: usize,
    seed: u64,
) -> Vec<f64> {
    measure_fanout(mech, selector, targeting_radius_m, trials, Fanout::new(seed))
}

/// [`measure`] driven by an explicit [`Fanout`] — the caller controls both
/// the seed and the worker-thread count. Results are identical for any
/// thread count (per-trial seeding; the candidate buffer is cleared
/// between trials).
///
/// # Panics
///
/// Panics if `targeting_radius_m` is not positive and finite.
pub fn measure_fanout(
    mech: &dyn Lppm,
    selector: &dyn SelectionStrategy,
    targeting_radius_m: f64,
    trials: usize,
    fanout: Fanout,
) -> Vec<f64> {
    let aoi = Circle::new(Point::ORIGIN, targeting_radius_m)
        .expect("targeting radius must be positive and finite");
    fanout.run_trials_with_scratch(trials, Vec::new, move |_, rng, candidates: &mut Vec<Point>| {
        candidates.clear();
        mech.obfuscate_into(Point::ORIGIN, rng, candidates);
        let chosen = candidates[selector.select(candidates, rng)];
        // AE = |AOI ∩ AOR| / |AOR|; radii are equal so the lens fraction
        // relative to the AOI equals the fraction relative to the AOR.
        analytic(&aoi, chosen)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_mechanisms::{GeoIndParams, NFoldGaussian, PosteriorSelector, UniformSelector};

    fn mech(n: usize) -> NFoldGaussian {
        NFoldGaussian::new(GeoIndParams::new(500.0, 1.0, 0.01, n).unwrap())
    }

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    /// The paper's literal procedure: sample `ads_per_trial` uniform ad
    /// locations in the selected AOR and count the fraction inside the AOI
    /// — the validation [`measure`] converges to as the ad budget grows.
    fn measure_sampled(
        mech: &dyn Lppm,
        selector: &dyn SelectionStrategy,
        targeting_radius_m: f64,
        trials: usize,
        ads_per_trial: usize,
        seed: u64,
    ) -> Vec<f64> {
        let aoi = Circle::new(Point::ORIGIN, targeting_radius_m).unwrap();
        Fanout::new(seed).run_trials_with_scratch(
            trials,
            Vec::new,
            move |_, rng, candidates: &mut Vec<Point>| {
                candidates.clear();
                mech.obfuscate_into(Point::ORIGIN, rng, candidates);
                let chosen = candidates[selector.select(candidates, rng)];
                let aor = aoi.recenter(chosen);
                let hits = (0..ads_per_trial)
                    .filter(|_| aoi.contains(aor.sample_uniform(&mut *rng)))
                    .count();
                hits as f64 / ads_per_trial as f64
            },
        )
    }

    #[test]
    fn efficacy_in_unit_interval() {
        let m = mech(5);
        let sel = PosteriorSelector::new(m.sigma());
        let es = measure(&m, &sel, 5_000.0, 200, 3);
        assert_eq!(es.len(), 200);
        assert!(es.iter().all(|e| (0.0..=1.0).contains(e)));
    }

    #[test]
    fn sampled_matches_analytic_in_expectation() {
        let m = mech(4);
        let sel = UniformSelector::new();
        let exact = mean(&measure(&m, &sel, 5_000.0, 400, 5));
        let sampled = mean(&measure_sampled(&m, &sel, 5_000.0, 400, 400, 5));
        assert!((exact - sampled).abs() < 0.03, "exact {exact} sampled {sampled}");
    }

    #[test]
    fn posterior_selection_beats_uniform() {
        // Fig. 9's mechanism: the posterior selector favors candidates near
        // the sample mean, i.e. near the true location, keeping efficacy up.
        let m = mech(10);
        let posterior = PosteriorSelector::new(m.sigma());
        let uniform = UniformSelector::new();
        let e_post = mean(&measure(&m, &posterior, 5_000.0, 3_000, 8));
        let e_unif = mean(&measure(&m, &uniform, 5_000.0, 3_000, 8));
        assert!(e_post > e_unif, "posterior {e_post} should beat uniform {e_unif}");
    }

    #[test]
    fn deterministic() {
        let m = mech(3);
        let sel = PosteriorSelector::new(m.sigma());
        assert_eq!(measure(&m, &sel, 5_000.0, 50, 1), measure(&m, &sel, 5_000.0, 50, 1));
    }
}
