//! Integration: the utility pipeline (mechanisms → metrics) reproduces the
//! paper's qualitative utility claims at reduced scale.

use privlocad_mechanisms::{
    GeoIndParams, NFoldGaussian, NaivePostProcessing, PlainComposition, PosteriorSelector,
    UniformSelector,
};
use privlocad_metrics::stats::min_rate_at_confidence;
use privlocad_metrics::{efficacy, utilization};

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[test]
fn fig7_ordering_holds_end_to_end() {
    let params = GeoIndParams::new(500.0, 1.0, 0.01, 10).unwrap();
    let trials = 400;
    let nfold = mean(&utilization::measure(&NFoldGaussian::new(params), 5_000.0, trials, 1));
    let post = mean(&utilization::measure(&NaivePostProcessing::new(params), 5_000.0, trials, 1));
    let comp = mean(&utilization::measure(&PlainComposition::new(params), 5_000.0, trials, 1));
    assert!(nfold > post && post > comp, "{nfold} / {post} / {comp}");
}

#[test]
fn fig8_min_ur_rises_with_n_for_both_epsilons() {
    for eps in [1.0, 1.5] {
        let u = |n: usize| {
            let params = GeoIndParams::new(500.0, eps, 0.01, n).unwrap();
            let urs = utilization::measure(&NFoldGaussian::new(params), 5_000.0, 1_500, 2);
            min_rate_at_confidence(&urs, 0.9)
        };
        let (u1, u5, u10) = (u(1), u(5), u(10));
        assert!(u1 < u5 && u5 < u10, "eps={eps}: {u1} {u5} {u10}");
    }
}

#[test]
fn fig9_posterior_selection_preserves_efficacy() {
    let params = GeoIndParams::new(500.0, 1.0, 0.01, 10).unwrap();
    let mech = NFoldGaussian::new(params);
    let posterior = PosteriorSelector::new(mech.sigma());
    let uniform = UniformSelector::new();
    let e_post = mean(&efficacy::measure(&mech, &posterior, 5_000.0, 3_000, 3));
    let e_unif = mean(&efficacy::measure(&mech, &uniform, 5_000.0, 3_000, 3));
    assert!(e_post > e_unif, "posterior {e_post} <= uniform {e_unif}");
}
