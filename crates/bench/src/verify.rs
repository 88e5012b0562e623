//! Section VI reproduction: verify the privacy calibration of Theorem 2
//! across the paper's whole parameter grid.
//!
//! For each `(r, ε, δ, n)` the harness computes σ from Theorem 2, the
//! *exact* δ the resulting Gaussian release achieves at ε (Balle–Wang
//! privacy curve applied to the sufficient statistic), and the calibration
//! slack — confirming both that the guarantee holds and that the
//! sufficient-statistics analysis is what makes it n-invariant.

use privlocad_mechanisms::verifier::verify_nfold_gaussian;
use privlocad_mechanisms::GeoIndParams;
use privlocad_metrics::montecarlo::Fanout;
use serde::{Deserialize, Serialize};

use crate::report::Table;

/// Configuration for the verification sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Privacy levels ε (paper: 1 and 1.5).
    pub epsilons: Vec<f64>,
    /// Radii r in meters (paper: 500–800).
    pub rs_m: Vec<f64>,
    /// Failure probability δ (paper: 0.01).
    pub delta: f64,
    /// Fold counts.
    pub ns: Vec<usize>,
    /// Worker threads for the grid sweep (0 = auto). Results are identical
    /// for any value.
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            epsilons: vec![1.0, 1.5],
            rs_m: vec![500.0, 600.0, 700.0, 800.0],
            delta: 0.01,
            ns: vec![1, 2, 5, 10],
            threads: 0,
        }
    }
}

/// One verified configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Privacy level.
    pub epsilon: f64,
    /// Radius in meters.
    pub r_m: f64,
    /// Fold count.
    pub n: usize,
    /// Theorem 2's σ.
    pub sigma: f64,
    /// Exact δ achieved at ε.
    pub achieved_delta: f64,
    /// Whether achieved ≤ claimed.
    pub holds: bool,
}

/// Result of the verification sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// The claimed δ.
    pub delta: f64,
    /// One row per configuration.
    pub rows: Vec<Row>,
}

/// Runs the sweep.
///
/// The exact Balle–Wang curve evaluation is pure per-cell work, so the
/// grid is spread over the fan-out's worker threads; row order matches
/// the nested (ε, r, n) loop regardless of the thread count.
pub fn run(config: &Config) -> Outcome {
    let mut grid = Vec::new();
    for &epsilon in &config.epsilons {
        for &r_m in &config.rs_m {
            for &n in &config.ns {
                grid.push((epsilon, r_m, n));
            }
        }
    }
    let rows = Fanout::with_threads(0, config.threads).map(&grid, |_, &(epsilon, r_m, n)| {
        let params =
            GeoIndParams::new(r_m, epsilon, config.delta, n).expect("valid sweep parameters");
        let v = verify_nfold_gaussian(params);
        Row {
            epsilon,
            r_m,
            n,
            sigma: params.sigma(),
            achieved_delta: v.achieved_delta,
            holds: v.holds(),
        }
    });
    Outcome { delta: config.delta, rows }
}

impl Outcome {
    /// `true` iff every configuration satisfies its claim.
    fn all_hold(&self) -> bool {
        self.rows.iter().all(|r| r.holds)
    }

    /// Renders the verification table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("Theorem 2 verification (claimed delta = {})", self.delta),
            &["epsilon", "r (m)", "n", "sigma (m)", "achieved delta", "holds"],
        );
        for r in &self.rows {
            t.push_row(vec![
                format!("{}", r.epsilon),
                format!("{:.0}", r.r_m),
                r.n.to_string(),
                format!("{:.0}", r.sigma),
                format!("{:.2e}", r.achieved_delta),
                if r.holds { "yes" } else { "NO" }.to_string(),
            ]);
        }
        t.push_row(vec![
            "all configurations hold".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            if self.all_hold() { "yes" } else { "NO" }.to_string(),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_all_hold() {
        let out = run(&Config::default());
        assert!(out.all_hold());
        assert_eq!(out.rows.len(), 2 * 4 * 4);
    }

    #[test]
    fn achieved_delta_is_n_invariant() {
        // The heart of the sufficient-statistics argument.
        let out = run(&Config::default());
        for &eps in &[1.0, 1.5] {
            let base = out
                .rows
                .iter()
                .find(|r| r.epsilon == eps && r.r_m == 500.0 && r.n == 1)
                .unwrap()
                .achieved_delta;
            for r in out.rows.iter().filter(|r| r.epsilon == eps && r.r_m == 500.0) {
                assert!((r.achieved_delta - base).abs() < 1e-15, "n = {}", r.n);
            }
        }
    }

    #[test]
    fn table_flags_summary_row(/* the last row is the verdict */) {
        let out = run(&Config { ns: vec![1], rs_m: vec![500.0], ..Config::default() });
        let t = out.table();
        assert_eq!(t.len(), 2 + 1);
        assert!(t.render().contains("all configurations hold"));
    }
}
