//! Fig. 8: minimal utilization rate at confidence α = 0.9.
//!
//! For each (ε, r, n) the paper reports the largest υ with
//! `Pr(UR ≥ υ) = 0.9` — the (1−α)-quantile of the UR distribution of the
//! n-fold Gaussian mechanism. Generating more outputs raises the
//! guaranteed utilization: from ~0.6 at n = 1 to ~0.9 at n = 10 for
//! ε = 1.5, and by ~60 % relative for ε = 1.

use privlocad_mechanisms::{GeoIndParams, NFoldGaussian};
use privlocad_metrics::montecarlo::Fanout;
use privlocad_metrics::stats::min_rate_at_confidence;
use privlocad_metrics::utilization;
use serde::{Deserialize, Serialize};

use crate::report::{f3, Table};

/// Configuration for the Fig. 8 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Monte-Carlo trials per cell (paper: 100,000).
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Privacy levels ε (paper: 1 and 1.5).
    pub epsilons: Vec<f64>,
    /// Radii r in meters (paper: 500–800).
    pub rs_m: Vec<f64>,
    /// Failure probability δ (paper: 0.01).
    pub delta: f64,
    /// Targeting radius R in meters (paper: 5,000).
    pub targeting_radius_m: f64,
    /// Fold counts (paper: 1..=10).
    pub ns: Vec<usize>,
    /// Confidence level α (paper: 0.9).
    pub alpha: f64,
    /// Worker threads for the Monte-Carlo fan-out (0 = auto). Results are
    /// identical for any value.
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            trials: 20_000,
            seed: 0,
            epsilons: vec![1.0, 1.5],
            rs_m: vec![500.0, 600.0, 700.0, 800.0],
            delta: 0.01,
            targeting_radius_m: 5_000.0,
            ns: (1..=10).collect(),
            alpha: 0.9,
            threads: 0,
        }
    }
}

/// One (ε, r, n) cell: the guaranteed minimal UR.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Privacy level.
    pub epsilon: f64,
    /// Radius in meters.
    pub r_m: f64,
    /// Fold count.
    pub n: usize,
    /// Minimal UR at the configured confidence.
    pub min_ur: f64,
}

/// Result of the Fig. 8 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// Confidence α.
    pub alpha: f64,
    /// One cell per (ε, r, n).
    pub cells: Vec<Cell>,
}

/// Runs the experiment.
pub fn run(config: &Config) -> Outcome {
    let mut cells = Vec::new();
    for &epsilon in &config.epsilons {
        for &r_m in &config.rs_m {
            for &n in &config.ns {
                let params = GeoIndParams::new(r_m, epsilon, config.delta, n)
                    .expect("valid sweep parameters");
                let mech = NFoldGaussian::new(params);
                let fan = Fanout::with_threads(
                    config.seed
                        ^ (n as u64)
                        ^ ((r_m as u64) << 16)
                        ^ ((epsilon * 10.0) as u64) << 32,
                    config.threads,
                );
                let urs = utilization::measure_fanout(
                    &mech,
                    config.targeting_radius_m,
                    config.trials,
                    fan,
                    utilization::DEFAULT_SAMPLES_PER_TRIAL,
                );
                cells.push(Cell {
                    epsilon,
                    r_m,
                    n,
                    min_ur: min_rate_at_confidence(&urs, config.alpha),
                });
            }
        }
    }
    Outcome { alpha: config.alpha, cells }
}

impl Outcome {
    /// Looks up one cell.
    pub fn cell(&self, epsilon: f64, r_m: f64, n: usize) -> Option<&Cell> {
        self.cells.iter().find(|c| c.epsilon == epsilon && c.r_m == r_m && c.n == n)
    }

    /// Renders the paper-style summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("Fig. 8 — minimal utilization rate at alpha = {}", self.alpha),
            &["epsilon", "r (m)", "n", "min UR"],
        );
        for c in &self.cells {
            t.push_row(vec![
                format!("{}", c.epsilon),
                format!("{:.0}", c.r_m),
                c.n.to_string(),
                f3(c.min_ur),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            trials: 1_500,
            epsilons: vec![1.0, 1.5],
            rs_m: vec![500.0, 800.0],
            ns: vec![1, 5, 10],
            ..Config::default()
        }
    }

    #[test]
    fn min_ur_grows_with_n() {
        let out = run(&small());
        for &eps in &[1.0, 1.5] {
            for &r in &[500.0, 800.0] {
                let u1 = out.cell(eps, r, 1).unwrap().min_ur;
                let u10 = out.cell(eps, r, 10).unwrap().min_ur;
                assert!(u10 > u1, "eps={eps} r={r}: {u1} -> {u10}");
            }
        }
    }

    #[test]
    fn looser_privacy_gives_higher_min_ur() {
        let out = run(&small());
        for &r in &[500.0, 800.0] {
            for &n in &[1usize, 10] {
                let strict = out.cell(1.0, r, n).unwrap().min_ur;
                let loose = out.cell(1.5, r, n).unwrap().min_ur;
                assert!(loose >= strict, "r={r} n={n}: eps1 {strict} vs eps1.5 {loose}");
            }
        }
    }

    #[test]
    fn paper_magnitudes_for_loose_privacy() {
        let out = run(&Config { trials: 3_000, ..small() });
        // ε = 1.5, r = 500: ~0.6 at n = 1, ~0.9 at n = 10.
        let u1 = out.cell(1.5, 500.0, 1).unwrap().min_ur;
        let u10 = out.cell(1.5, 500.0, 10).unwrap().min_ur;
        assert!((0.4..0.8).contains(&u1), "n=1 min UR {u1}");
        assert!(u10 > 0.8, "n=10 min UR {u10}");
    }

    #[test]
    fn larger_r_means_more_noise_and_lower_ur() {
        let out = run(&small());
        for &n in &[1usize, 10] {
            let small_r = out.cell(1.0, 500.0, n).unwrap().min_ur;
            let large_r = out.cell(1.0, 800.0, n).unwrap().min_ur;
            assert!(large_r <= small_r + 0.02, "n={n}: r500 {small_r} r800 {large_r}");
        }
    }

    #[test]
    fn table_covers_all_cells() {
        let out = run(&small());
        assert_eq!(out.table().len(), 2 * 2 * 3);
    }
}
