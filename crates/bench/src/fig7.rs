//! Fig. 7: utilization-rate distributions of the three mechanisms.
//!
//! At ε = 1, r = 500 m, R = 5 km and n from 1 to 10 the paper finds the
//! n-fold Gaussian mechanism approaching 100 % utilization at n = 10,
//! while the naïve post-processing baseline reaches ~58 % and plain DP
//! composition *degrades* to ~20 % — composition noise grows faster than
//! the extra candidates can recover.

use privlocad_mechanisms::{
    GeoIndParams, Lppm, NFoldGaussian, NaivePostProcessing, PlainComposition,
};
use privlocad_metrics::histogram::Histogram;
use privlocad_metrics::montecarlo::Fanout;
use privlocad_metrics::stats::Summary;
use privlocad_metrics::utilization;
use serde::{Deserialize, Serialize};

use crate::report::{f3, Table};

/// Configuration for the Fig. 7 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Monte-Carlo trials per (mechanism, n) pair (paper: 100,000).
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Privacy level ε (paper: 1).
    pub epsilon: f64,
    /// Indistinguishability radius r in meters (paper: 500).
    pub r_m: f64,
    /// Failure probability δ (paper: 0.01).
    pub delta: f64,
    /// Targeting radius R in meters (paper: 5,000).
    pub targeting_radius_m: f64,
    /// The fold counts to sweep (paper: 1..=10).
    pub ns: Vec<usize>,
    /// Worker threads for the Monte-Carlo fan-out (0 = auto). Results are
    /// identical for any value.
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            trials: 20_000,
            seed: 0,
            epsilon: 1.0,
            r_m: 500.0,
            delta: 0.01,
            targeting_radius_m: 5_000.0,
            ns: (1..=10).collect(),
            threads: 0,
        }
    }
}

/// The three compared mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MechanismKind {
    /// The paper's n-fold Gaussian (Fig. 7a).
    NFold,
    /// Naïve post-processing (Fig. 7b).
    PostProcessing,
    /// Plain DP composition (Fig. 7c).
    Composition,
}

impl MechanismKind {
    /// All kinds in figure order.
    pub const ALL: [MechanismKind; 3] =
        [MechanismKind::NFold, MechanismKind::PostProcessing, MechanismKind::Composition];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            MechanismKind::NFold => "n-fold Gaussian",
            MechanismKind::PostProcessing => "naive post-processing",
            MechanismKind::Composition => "plain composition",
        }
    }

    /// Builds the mechanism for the given parameters.
    pub fn build(self, params: GeoIndParams) -> Box<dyn Lppm> {
        match self {
            MechanismKind::NFold => Box::new(NFoldGaussian::new(params)),
            MechanismKind::PostProcessing => Box::new(NaivePostProcessing::new(params)),
            MechanismKind::Composition => Box::new(PlainComposition::new(params)),
        }
    }
}

/// Utilization summary of one (mechanism, n) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Mechanism.
    pub kind: MechanismKind,
    /// Fold count.
    pub n: usize,
    /// Mean UR.
    pub mean: f64,
    /// 10th-percentile UR (feeds Fig. 8's α = 0.9 reading).
    pub p10: f64,
    /// Median UR.
    pub median: f64,
    /// A 16-bin sparkline of the UR distribution over `[0, 1]` — Fig. 7
    /// plots full distributions, not point estimates.
    pub distribution: String,
}

/// Result of the Fig. 7 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// Trials per cell.
    pub trials: usize,
    /// One cell per (mechanism, n).
    pub cells: Vec<Cell>,
}

/// Runs the experiment.
pub fn run(config: &Config) -> Outcome {
    let mut cells = Vec::new();
    for kind in MechanismKind::ALL {
        for &n in &config.ns {
            let params = GeoIndParams::new(config.r_m, config.epsilon, config.delta, n)
                .expect("valid sweep parameters");
            let mech = kind.build(params);
            let fan =
                Fanout::with_threads(config.seed ^ (n as u64) << 8 ^ kind as u64, config.threads);
            let urs = utilization::measure_fanout(
                mech.as_ref(),
                config.targeting_radius_m,
                config.trials,
                fan,
                utilization::DEFAULT_SAMPLES_PER_TRIAL,
            );
            let s = Summary::of(&urs);
            let hist = Histogram::of(&urs, 0.0, 1.0, 16).expect("valid fixed range");
            cells.push(Cell {
                kind,
                n,
                mean: s.mean,
                p10: privlocad_metrics::stats::quantile(&urs, 0.1),
                median: s.median,
                distribution: hist.sparkline(),
            });
        }
    }
    Outcome { trials: config.trials, cells }
}

impl Outcome {
    /// The cell for a mechanism at a fold count, if swept.
    pub fn cell(&self, kind: MechanismKind, n: usize) -> Option<&Cell> {
        self.cells.iter().find(|c| c.kind == kind && c.n == n)
    }

    /// Renders the paper-style summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("Fig. 7 — utilization rate by mechanism ({} trials/cell)", self.trials),
            &["mechanism", "n", "mean UR", "median UR", "p10 UR", "distribution 0..1"],
        );
        for c in &self.cells {
            t.push_row(vec![
                c.kind.label().to_string(),
                c.n.to_string(),
                f3(c.mean),
                f3(c.median),
                f3(c.p10),
                c.distribution.clone(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config { trials: 800, ns: vec![1, 5, 10], ..Config::default() }
    }

    #[test]
    fn ordering_matches_fig7_at_n10() {
        let out = run(&small());
        let nfold = out.cell(MechanismKind::NFold, 10).unwrap().mean;
        let post = out.cell(MechanismKind::PostProcessing, 10).unwrap().mean;
        let comp = out.cell(MechanismKind::Composition, 10).unwrap().mean;
        assert!(nfold > post, "n-fold {nfold} vs post {post}");
        assert!(post > comp, "post {post} vs composition {comp}");
        // Rough paper magnitudes: ~1.0 / ~0.58 / ~0.2.
        assert!(nfold > 0.85, "n-fold at n=10: {nfold}");
        assert!(comp < 0.45, "composition at n=10: {comp}");
    }

    #[test]
    fn nfold_improves_with_n_composition_degrades() {
        let out = run(&small());
        let nf1 = out.cell(MechanismKind::NFold, 1).unwrap().mean;
        let nf10 = out.cell(MechanismKind::NFold, 10).unwrap().mean;
        assert!(nf10 > nf1, "n-fold: {nf1} -> {nf10}");
        let c1 = out.cell(MechanismKind::Composition, 1).unwrap().mean;
        let c10 = out.cell(MechanismKind::Composition, 10).unwrap().mean;
        assert!(c10 < c1, "composition: {c1} -> {c10}");
    }

    #[test]
    fn all_cells_present_and_in_unit_interval() {
        let out = run(&small());
        assert_eq!(out.cells.len(), 9);
        for c in &out.cells {
            assert!((0.0..=1.0).contains(&c.mean));
            assert!((0.0..=1.0).contains(&c.p10));
            assert!(c.p10 <= c.median + 1e-12);
        }
        assert_eq!(out.table().len(), 9);
    }
}
