//! The utilization rate metric (Definition 4).
//!
//! `UR = |AOI ∩ AOR| / |AOI|` where the AOI is the targeting disc of radius
//! `R` around the user's *true* location and the AOR is the union of the
//! same disc re-centered on each released obfuscated location (an ad can be
//! requested from any of the `n` candidates).

use privlocad_geo::{Circle, Point};
use privlocad_mechanisms::Lppm;
use rand::Rng;

use crate::montecarlo::Fanout;

/// Exact utilization rate for a single obfuscated output: the circle-lens
/// area between the AOI and the shifted AOR over the AOI area.
///
/// # Examples
///
/// ```
/// use privlocad_geo::{Circle, Point};
/// use privlocad_metrics::utilization::analytic;
///
/// let aoi = Circle::new(Point::ORIGIN, 5_000.0)?;
/// assert_eq!(analytic(&aoi, Point::ORIGIN), 1.0);          // no shift
/// assert_eq!(analytic(&aoi, Point::new(10_000.0, 0.0)), 0.0); // disjoint
/// # Ok::<(), privlocad_geo::GeoError>(())
/// ```
pub fn analytic(aoi: &Circle, aor_center: Point) -> f64 {
    let aor = aoi.recenter(aor_center);
    aoi.intersection_area(&aor) / aoi.area()
}

/// Deterministic grid estimate of the union coverage
/// `|AOI ∩ ⋃ᵢ AORᵢ| / |AOI|`.
///
/// The AOI's bounding square is discretized into `resolution²` cells; the
/// fraction of in-AOI cell centers covered by at least one AOR is
/// returned. Error is O(1/resolution).
///
/// # Panics
///
/// Panics if `resolution` is zero.
// lint:allow(dead-pub): integration-test hook: the metrics proptests check the grid coverage against the analytic rate with it
pub fn coverage_grid(aoi: &Circle, aor_centers: &[Point], resolution: usize) -> f64 {
    assert!(resolution > 0, "resolution must be positive");
    let r = aoi.radius();
    let r_sq = r * r;
    let c = aoi.center();
    let step = 2.0 * r / resolution as f64;
    let mut inside = 0usize;
    let mut covered = 0usize;
    for ix in 0..resolution {
        let x = c.x - r + (ix as f64 + 0.5) * step;
        for iy in 0..resolution {
            let y = c.y - r + (iy as f64 + 0.5) * step;
            let p = Point::new(x, y);
            if c.distance_sq(p) > r_sq {
                continue;
            }
            inside += 1;
            if aor_centers.iter().any(|&q| q.distance_sq(p) <= r_sq) {
                covered += 1;
            }
        }
    }
    if inside == 0 {
        0.0
    } else {
        covered as f64 / inside as f64
    }
}

/// Monte-Carlo estimate of the union coverage with `samples` uniform
/// points in the AOI. Unbiased; standard error ≈ `0.5/√samples`.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn coverage_sampled<R: Rng + ?Sized>(
    aoi: &Circle,
    aor_centers: &[Point],
    samples: usize,
    rng: &mut R,
) -> f64 {
    assert!(samples > 0, "at least one sample is required");
    let r_sq = aoi.radius() * aoi.radius();
    let mut covered = 0usize;
    for _ in 0..samples {
        let p = aoi.sample_uniform(rng);
        if aor_centers.iter().any(|&q| q.distance_sq(p) <= r_sq) {
            covered += 1;
        }
    }
    covered as f64 / samples as f64
}

/// Number of in-AOI sample points used per trial by [`measure`].
pub const DEFAULT_SAMPLES_PER_TRIAL: usize = 512;

/// Runs `trials` independent releases of `mech` (real location at the
/// origin, WLOG — every mechanism here is translation-invariant) and
/// returns the per-trial utilization rate at targeting radius
/// `targeting_radius_m`.
///
/// Single-output releases are scored with the exact lens formula; multi-
/// output releases with [`coverage_sampled`] at
/// [`DEFAULT_SAMPLES_PER_TRIAL`] points. Trials run in parallel but are
/// deterministically seeded.
///
/// # Panics
///
/// Panics if `targeting_radius_m` is not positive and finite.
pub fn measure(mech: &dyn Lppm, targeting_radius_m: f64, trials: usize, seed: u64) -> Vec<f64> {
    measure_with(mech, targeting_radius_m, trials, seed, DEFAULT_SAMPLES_PER_TRIAL)
}

/// [`measure`] with an explicit per-trial sample budget.
///
/// # Panics
///
/// Panics if `targeting_radius_m` is invalid or `samples_per_trial` is 0.
// lint:allow(dead-pub): integration-test hook: the metrics proptests measure utilization over explicit centers with it
pub fn measure_with(
    mech: &dyn Lppm,
    targeting_radius_m: f64,
    trials: usize,
    seed: u64,
    samples_per_trial: usize,
) -> Vec<f64> {
    measure_fanout(mech, targeting_radius_m, trials, Fanout::new(seed), samples_per_trial)
}

/// [`measure_with`] driven by an explicit [`Fanout`] — the caller controls
/// both the seed and the worker-thread count. Results are identical for
/// any thread count (per-trial seeding; the candidate buffer is cleared
/// between trials).
///
/// # Panics
///
/// Panics if `targeting_radius_m` is invalid or `samples_per_trial` is 0.
pub fn measure_fanout(
    mech: &dyn Lppm,
    targeting_radius_m: f64,
    trials: usize,
    fanout: Fanout,
    samples_per_trial: usize,
) -> Vec<f64> {
    let aoi = Circle::new(Point::ORIGIN, targeting_radius_m)
        .expect("targeting radius must be positive and finite");
    assert!(samples_per_trial > 0, "at least one sample per trial");
    fanout.run_trials_with_scratch(trials, Vec::new, move |_, rng, outputs: &mut Vec<Point>| {
        outputs.clear();
        mech.obfuscate_into(Point::ORIGIN, rng, outputs);
        if outputs.len() == 1 {
            analytic(&aoi, outputs[0])
        } else {
            coverage_sampled(&aoi, outputs, samples_per_trial, rng)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_geo::rng::seeded;
    use privlocad_mechanisms::{GeoIndParams, NFoldGaussian, PlainComposition};

    fn aoi() -> Circle {
        Circle::new(Point::ORIGIN, 5_000.0).unwrap()
    }

    #[test]
    fn analytic_known_values() {
        // Equal circles at distance R overlap ≈ 39.1 % of either disc.
        let ur = analytic(&aoi(), Point::new(5_000.0, 0.0));
        assert!((ur - 0.391).abs() < 0.001, "ur {ur}");
    }

    #[test]
    fn grid_matches_analytic_for_single_center() {
        for d in [0.0, 1_000.0, 3_000.0, 5_000.0, 8_000.0, 11_000.0] {
            let exact = analytic(&aoi(), Point::new(d, 0.0));
            let grid = coverage_grid(&aoi(), &[Point::new(d, 0.0)], 400);
            assert!((exact - grid).abs() < 0.01, "d={d}: exact {exact} grid {grid}");
        }
    }

    #[test]
    fn sampled_matches_analytic_for_single_center() {
        let mut rng = seeded(3);
        let exact = analytic(&aoi(), Point::new(4_000.0, 0.0));
        let mc = coverage_sampled(&aoi(), &[Point::new(4_000.0, 0.0)], 50_000, &mut rng);
        assert!((exact - mc).abs() < 0.01, "exact {exact} mc {mc}");
    }

    #[test]
    fn union_coverage_never_below_best_single(/* union ⊇ each member */) {
        let centers =
            [Point::new(3_000.0, 0.0), Point::new(-4_000.0, 1_000.0), Point::new(0.0, 6_000.0)];
        let union = coverage_grid(&aoi(), &centers, 300);
        for &c in &centers {
            assert!(union >= analytic(&aoi(), c) - 0.01);
        }
    }

    #[test]
    fn coverage_of_matching_center_is_one() {
        assert_eq!(coverage_grid(&aoi(), &[Point::ORIGIN], 200), 1.0);
        let mut rng = seeded(1);
        assert_eq!(coverage_sampled(&aoi(), &[Point::ORIGIN], 1_000, &mut rng), 1.0);
    }

    #[test]
    fn coverage_of_no_centers_is_zero() {
        assert_eq!(coverage_grid(&aoi(), &[], 100), 0.0);
        let mut rng = seeded(1);
        assert_eq!(coverage_sampled(&aoi(), &[], 100, &mut rng), 0.0);
    }

    #[test]
    fn measure_returns_unit_interval_values() {
        let mech = NFoldGaussian::new(GeoIndParams::new(500.0, 1.0, 0.01, 5).unwrap());
        let urs = measure(&mech, 5_000.0, 100, 11);
        assert_eq!(urs.len(), 100);
        assert!(urs.iter().all(|u| (0.0..=1.0).contains(u)));
    }

    #[test]
    fn measure_is_deterministic() {
        let mech = NFoldGaussian::new(GeoIndParams::new(500.0, 1.0, 0.01, 3).unwrap());
        assert_eq!(measure(&mech, 5_000.0, 50, 7), measure(&mech, 5_000.0, 50, 7));
    }

    #[test]
    fn n_fold_beats_composition_on_average() {
        // The headline of Fig. 7, in miniature.
        let params = GeoIndParams::new(500.0, 1.0, 0.01, 10).unwrap();
        let nfold = NFoldGaussian::new(params);
        let comp = PlainComposition::new(params);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let u_nfold = mean(&measure(&nfold, 5_000.0, 300, 1));
        let u_comp = mean(&measure(&comp, 5_000.0, 300, 1));
        assert!(
            u_nfold > u_comp + 0.2,
            "n-fold {u_nfold} should clearly beat composition {u_comp}"
        );
    }

    #[test]
    fn more_outputs_raise_utilization_for_n_fold() {
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let u1 = mean(&measure(
            &NFoldGaussian::new(GeoIndParams::new(500.0, 1.0, 0.01, 1).unwrap()),
            5_000.0,
            300,
            2,
        ));
        let u10 = mean(&measure(
            &NFoldGaussian::new(GeoIndParams::new(500.0, 1.0, 0.01, 10).unwrap()),
            5_000.0,
            300,
            2,
        ));
        assert!(u10 > u1, "n=10 ({u10}) should beat n=1 ({u1})");
    }

    #[test]
    #[should_panic(expected = "resolution must be positive")]
    fn grid_rejects_zero_resolution() {
        let _ = coverage_grid(&aoi(), &[], 0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn sampled_rejects_zero_samples() {
        let mut rng = seeded(0);
        let _ = coverage_sampled(&aoi(), &[], 0, &mut rng);
    }
}
