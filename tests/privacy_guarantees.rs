//! Integration tests of the privacy guarantees across crates: the
//! calibration of Theorem 2, the sufficient-statistics argument, and the
//! post-processing-freeness of output selection.

use privlocad::{EdgeDevice, SystemConfig};
use privlocad_geo::{centroid, rng::seeded, Point};
use privlocad_mechanisms::verifier::{
    empirical_gaussian_delta, gaussian_delta, verify_nfold_gaussian,
};
use privlocad_mechanisms::{GeoIndParams, Lppm, NFoldGaussian};
use privlocad_mobility::UserId;

#[test]
fn theorem2_calibration_holds_over_the_paper_grid() {
    for &eps in &[1.0, 1.5] {
        for &r in &[500.0, 600.0, 700.0, 800.0] {
            for n in 1..=10 {
                let v = verify_nfold_gaussian(GeoIndParams::new(r, eps, 0.01, n).unwrap());
                assert!(v.holds(), "(r={r}, eps={eps}, n={n})");
            }
        }
    }
}

#[test]
fn sample_mean_is_the_sufficient_statistic_in_practice() {
    // Whatever n, the sample mean of the released set has the same
    // distribution: N(p, sigma_single²). Check first two moments.
    let mut rng = seeded(10);
    let p = Point::new(777.0, -333.0);
    for n in [1usize, 4, 10] {
        let params = GeoIndParams::new(500.0, 1.0, 0.01, n).unwrap();
        let mech = NFoldGaussian::new(params);
        let trials = 6_000;
        let means: Vec<Point> =
            (0..trials).map(|_| centroid(&mech.obfuscate(p, &mut rng)).unwrap()).collect();
        let grand = centroid(&means).unwrap();
        assert!(grand.distance(p) < 80.0, "n={n}: grand mean off by {}", grand.distance(p));
        let var_x = means.iter().map(|m| (m.x - p.x).powi(2)).sum::<f64>() / trials as f64;
        let expected = params.sigma_single().powi(2);
        assert!(
            (var_x - expected).abs() < 0.08 * expected,
            "n={n}: var {var_x} expected {expected}"
        );
    }
}

#[test]
fn empirical_privacy_loss_matches_the_analytic_curve() {
    // A deliberately weak configuration so the failure mass is measurable.
    let params = GeoIndParams::new(500.0, 1.0, 0.3, 3).unwrap();
    let analytic = gaussian_delta(1.0, 500.0, params.sigma() / 3f64.sqrt());
    let mc = empirical_gaussian_delta(params, 150_000, 42).unwrap();
    assert!((mc - analytic).abs() < 1e-3, "mc {mc} vs analytic {analytic}");
}

#[test]
fn output_selection_only_reveals_already_released_points() {
    // Post-processing: over thousands of requests, the set of reported
    // locations for a top location never grows beyond the n candidates.
    let config = SystemConfig::builder().build().unwrap();
    let mut edge = EdgeDevice::new(config, 5);
    let user = UserId::new(0);
    let home = Point::new(100.0, 100.0);
    for _ in 0..40 {
        edge.report_checkin(user, home);
    }
    edge.finalize_window(user);
    let candidates = edge.candidates(user, home).unwrap().to_vec();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..5_000 {
        let reported = edge.reported_location(user, home);
        assert!(candidates.contains(&reported));
        seen.insert(candidates.iter().position(|&c| c == reported).unwrap());
    }
    assert!(seen.len() <= config.geo_ind().n());
}

#[test]
fn composition_baseline_noise_dominates_nfold_noise() {
    // The quantitative heart of the paper: per-output noise under plain
    // composition grows ~n·sqrt(ln n) while the n-fold mechanism only
    // needs sqrt(n).
    for n in 2..=10usize {
        let params = GeoIndParams::new(500.0, 1.0, 0.01, n).unwrap();
        let nfold = NFoldGaussian::new(params).sigma();
        let comp = NFoldGaussian::new(params.composition_split()).sigma();
        let ratio = comp / nfold;
        assert!(ratio > (n as f64).sqrt() * 0.9, "n={n}: composition/nfold sigma ratio {ratio}");
    }
}

#[test]
fn mechanisms_are_send_sync_for_parallel_evaluation() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NFoldGaussian>();
    assert_send_sync::<Box<dyn Lppm>>();
}
