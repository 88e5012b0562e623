//! Fig. 9: advertising efficacy versus the number of obfuscated outputs.
//!
//! Efficacy (Definition 5) measures how relevant the fetched ads are. The
//! n-fold mechanism's noise grows with √n, yet the posterior-based output
//! selection (Algorithm 4) keeps efficacy from collapsing — the paper's
//! Observation 4. The uniform-selection ablation quantifies how much the
//! posterior weighting contributes.

use privlocad_mechanisms::{
    GeoIndParams, NFoldGaussian, PosteriorSelector, SelectionStrategy, UniformSelector,
};
use privlocad_metrics::efficacy;
use privlocad_metrics::montecarlo::Fanout;
use serde::{Deserialize, Serialize};

use crate::report::{f3, Table};

/// Configuration for the Fig. 9 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Monte-Carlo trials per cell (paper: 100,000).
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Privacy level ε (paper: 1).
    pub epsilon: f64,
    /// Radii r in meters (paper: 500–800).
    pub rs_m: Vec<f64>,
    /// Failure probability δ (paper: 0.01).
    pub delta: f64,
    /// Targeting radius R in meters (paper: 5,000).
    pub targeting_radius_m: f64,
    /// Fold counts (paper: 1..=10).
    pub ns: Vec<usize>,
    /// Also evaluate the uniform-selection ablation.
    pub include_uniform_ablation: bool,
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
            rs_m: vec![500.0, 600.0, 700.0, 800.0],
            delta: 0.01,
            targeting_radius_m: 5_000.0,
            ns: (1..=10).collect(),
            include_uniform_ablation: true,
            threads: 0,
        }
    }
}

/// One (r, n) cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Radius r in meters.
    pub r_m: f64,
    /// Fold count.
    pub n: usize,
    /// Mean efficacy with posterior selection (the paper's curve).
    pub posterior: f64,
    /// Mean efficacy with uniform selection (ablation), if evaluated.
    pub uniform: Option<f64>,
}

/// Result of the Fig. 9 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// One cell per (r, n).
    pub cells: Vec<Cell>,
}

/// Runs the experiment.
pub fn run(config: &Config) -> Outcome {
    let mut cells = Vec::new();
    for &r_m in &config.rs_m {
        for &n in &config.ns {
            let params = GeoIndParams::new(r_m, config.epsilon, config.delta, n)
                .expect("valid sweep parameters");
            let mech = NFoldGaussian::new(params);
            let seed = config.seed ^ ((r_m as u64) << 20) ^ n as u64;
            let fan = Fanout::with_threads(seed, config.threads);
            let posterior_sel = PosteriorSelector::new(mech.sigma());
            let posterior = mean(&efficacy::measure_fanout(
                &mech,
                &posterior_sel,
                config.targeting_radius_m,
                config.trials,
                fan,
            ));
            let uniform = config.include_uniform_ablation.then(|| {
                let sel = UniformSelector::new();
                mean(&efficacy::measure_fanout(
                    &mech,
                    &sel as &dyn SelectionStrategy,
                    config.targeting_radius_m,
                    config.trials,
                    fan.reseeded(seed.wrapping_add(1)),
                ))
            });
            cells.push(Cell { r_m, n, posterior, uniform });
        }
    }
    Outcome { cells }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

impl Outcome {
    /// Looks up one cell.
    pub fn cell(&self, r_m: f64, n: usize) -> Option<&Cell> {
        self.cells.iter().find(|c| c.r_m == r_m && c.n == n)
    }

    /// Renders the paper-style summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 9 — advertising efficacy vs n (eps = 1)",
            &["r (m)", "n", "efficacy (posterior)", "efficacy (uniform)"],
        );
        for c in &self.cells {
            t.push_row(vec![
                format!("{:.0}", c.r_m),
                c.n.to_string(),
                f3(c.posterior),
                c.uniform.map_or("-".into(), f3),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config { trials: 3_000, rs_m: vec![500.0, 800.0], ns: vec![1, 5, 10], ..Config::default() }
    }

    #[test]
    fn efficacy_does_not_collapse_with_n() {
        // Observation 4: with posterior selection the efficacy at n = 10
        // stays within a modest factor of n = 1 (a graceful decline, not
        // the ∝1/√n collapse the added noise alone would suggest), and
        // remains clearly useful in absolute terms.
        let out = run(&small());
        for &r in &[500.0, 800.0] {
            let e1 = out.cell(r, 1).unwrap().posterior;
            let e10 = out.cell(r, 10).unwrap().posterior;
            assert!(e10 > 0.35 * e1, "r={r}: efficacy fell from {e1} to {e10}");
            assert!(e10 > 0.15, "r={r}: absolute efficacy {e10}");
        }
    }

    #[test]
    fn posterior_beats_uniform_for_large_n() {
        let out = run(&small());
        let c = out.cell(500.0, 10).unwrap();
        assert!(
            c.posterior > c.uniform.unwrap(),
            "posterior {} vs uniform {:?}",
            c.posterior,
            c.uniform
        );
    }

    #[test]
    fn ablation_can_be_disabled() {
        let out = run(&Config {
            include_uniform_ablation: false,
            trials: 500,
            rs_m: vec![500.0],
            ns: vec![1],
            ..Config::default()
        });
        assert!(out.cells[0].uniform.is_none());
        assert_eq!(out.table().len(), 1);
    }

    #[test]
    fn smaller_r_gives_higher_efficacy() {
        let out = run(&small());
        for &n in &[1usize, 10] {
            let small_r = out.cell(500.0, n).unwrap().posterior;
            let large_r = out.cell(800.0, n).unwrap().posterior;
            assert!(large_r <= small_r + 0.02, "n={n}: r500 {small_r} r800 {large_r}");
        }
    }
}
