//! Fig. 6: population-scale attack success, with and without the defense.
//!
//! For every user the longitudinal attacker observes the reported (and
//! obfuscated) check-in stream and infers the top-1/top-2 locations with
//! Algorithm 1. Under one-time geo-IND (planar Laplace, `r = 200 m`,
//! `l ∈ {ln 2, ln 4, ln 6}`) the paper recovers 75–93 % of top-1 locations
//! within 200 m; under Edge-PrivLocAd's permanent 10-fold Gaussian
//! obfuscation (`r = 500 m`, `ε ∈ {1, 1.5}`) less than 1 % within 200 m
//! and ~5–7 % within 500 m.
//!
//! The defense arms observe what the ad network receives: each user's trace
//! is replayed through a per-user-stream edge device whose ad requests go
//! out as OpenRTB-lite bids, and Algorithm 1 runs on the request frames as
//! the attacker taps them ([`privlocad::replay`]).

use privlocad::replay::{observe, replay_trace};
use privlocad::{EdgeDevice, SystemConfig};
use privlocad_attack::evaluation::{rank_distances, AttackStats};
use privlocad_attack::DeobfuscationAttack;
use privlocad_geo::rng::derive_seed;
use privlocad_mechanisms::{NFoldGaussian, PlanarLaplace, PlanarLaplaceParams};
use privlocad_metrics::montecarlo::run_trials;
use privlocad_mobility::PopulationConfig;
use privlocad_openrtb::{BidSink, DeviceId};
use serde::{Deserialize, Serialize};

use crate::report::{pct, Table};

/// Configuration for the Fig. 6 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Number of users (paper: 37,262).
    pub users: usize,
    /// Master seed.
    pub seed: u64,
    /// Success-distance thresholds in meters.
    pub thresholds_m: Vec<f64>,
    /// One-time geo-IND privacy levels `l` at 200 m (paper: ln 2/4/6).
    pub one_time_levels: Vec<f64>,
    /// Defense privacy levels ε at r = 500 m, n = 10 (paper: 1 and 1.5).
    pub defense_epsilons: Vec<f64>,
    /// Trimming confidence (paper: α = 0.05).
    pub alpha: f64,
    /// Disable the trimming stage (ablation).
    pub no_trimming: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            users: 500,
            seed: 0,
            thresholds_m: vec![50.0, 100.0, 200.0, 300.0, 500.0, 1_000.0],
            one_time_levels: vec![2f64.ln(), 4f64.ln(), 6f64.ln()],
            defense_epsilons: vec![1.0, 1.5],
            alpha: 0.05,
            no_trimming: false,
        }
    }
}

/// One evaluated configuration (an attack arm).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Arm {
    /// Display label.
    pub label: String,
    /// Success rate at each threshold for the top-1 location.
    pub top1: Vec<f64>,
    /// Success rate at each threshold for the top-2 location.
    pub top2: Vec<f64>,
}

/// Result of the Fig. 6 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// Users evaluated.
    pub users: usize,
    /// The thresholds the curves are sampled at.
    pub thresholds_m: Vec<f64>,
    /// One arm per attacked configuration, one-time arms first.
    pub arms: Vec<Arm>,
}

/// Runs the experiment.
pub fn run(config: &Config) -> Outcome {
    let population = PopulationConfig::builder()
        .num_users(config.users)
        .seed(config.seed)
        .build();

    // Pre-build the attacked mechanisms and their attack configurations.
    let one_time: Vec<PlanarLaplace> = config
        .one_time_levels
        .iter()
        .map(|&l| {
            PlanarLaplace::new(
                PlanarLaplaceParams::from_level(l, 200.0).expect("valid level"),
            )
        })
        .collect();
    let defenses: Vec<SystemConfig> = config
        .defense_epsilons
        .iter()
        .map(|&eps| {
            SystemConfig::builder()
                .epsilon(eps)
                .build()
                .expect("valid defense epsilon")
        })
        .collect();

    let alpha = config.alpha;
    let no_trim = config.no_trimming;
    let arm_count = one_time.len() + defenses.len();

    // distances[user][arm] = [top1, top2]
    let per_user: Vec<Vec<[Option<f64>; 2]>> =
        run_trials(config.users, config.seed, |i, rng| {
            let user = population.generate_user(i as u32);
            let truth = [user.truth.top_locations[0], user.truth.top_locations[1]];
            let mut rows: Vec<[Option<f64>; 2]> = Vec::with_capacity(arm_count);

            for mech in &one_time {
                let observed: Vec<_> = user
                    .checkins
                    .iter()
                    .map(|c| mech.sample(c.location, rng))
                    .collect();
                let mut attack_cfg = DeobfuscationAttack::for_planar_laplace(mech, alpha)
                    .expect("valid alpha")
                    .config();
                if no_trim {
                    attack_cfg = attack_cfg.without_trimming();
                }
                let inferred =
                    DeobfuscationAttack::new(attack_cfg).infer_top_locations(&observed, 2);
                let d = rank_distances(&inferred, &truth);
                rows.push([d[0], d[1]]);
            }

            for (k, sys) in defenses.iter().enumerate() {
                // Arm k is one fleet on master derive_seed(seed, k + 1);
                // per-user streams make a device per user equivalent.
                let mut edge = EdgeDevice::new(*sys, derive_seed(config.seed, (k + 1) as u64));
                let sink = BidSink::new();
                replay_trace(&mut edge, &user, &sink);
                let seen = observe(&sink).expect("frames the sink encoded decode");
                let observed = seen.locations_of(DeviceId::new(u64::from(user.user.raw())));
                let gaussian = NFoldGaussian::new(sys.geo_ind());
                let mut attack_cfg = DeobfuscationAttack::for_gaussian(&gaussian, alpha)
                    .expect("valid alpha")
                    .config();
                if no_trim {
                    attack_cfg = attack_cfg.without_trimming();
                }
                let inferred =
                    DeobfuscationAttack::new(attack_cfg).infer_top_locations(observed, 2);
                let d = rank_distances(&inferred, &truth);
                rows.push([d[0], d[1]]);
            }
            rows
        });

    // Aggregate per arm.
    let labels: Vec<String> = config
        .one_time_levels
        .iter()
        .map(|l| format!("one-time geo-IND l=ln({:.0})", l.exp()))
        .chain(
            config
                .defense_epsilons
                .iter()
                .map(|e| format!("Edge-PrivLocAd eps={e}")),
        )
        .collect();
    let arms = labels
        .into_iter()
        .enumerate()
        .map(|(a, label)| {
            let mut stats = AttackStats::new(2);
            for user_rows in &per_user {
                stats.record(&user_rows[a]);
            }
            Arm {
                label,
                top1: stats.success_curve(0, &config.thresholds_m),
                top2: stats.success_curve(1, &config.thresholds_m),
            }
        })
        .collect();

    Outcome { users: config.users, thresholds_m: config.thresholds_m.clone(), arms }
}

impl Outcome {
    /// Renders the paper-style summary table (success rates per arm and
    /// threshold).
    pub fn table(&self) -> Table {
        let mut header: Vec<String> = vec!["configuration".into(), "rank".into()];
        header.extend(self.thresholds_m.iter().map(|t| format!("<= {t:.0} m")));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(
            format!("Fig. 6 — attack success over {} users", self.users),
            &header_refs,
        );
        for arm in &self.arms {
            let mut row1 = vec![arm.label.clone(), "top-1".into()];
            row1.extend(arm.top1.iter().map(|&v| pct(v)));
            t.push_row(row1);
            let mut row2 = vec![arm.label.clone(), "top-2".into()];
            row2.extend(arm.top2.iter().map(|&v| pct(v)));
            t.push_row(row2);
        }
        t
    }

    /// The arm whose label contains `needle`, if any.
    pub fn arm(&self, needle: &str) -> Option<&Arm> {
        self.arms.iter().find(|a| a.label.contains(needle))
    }

    /// A 95 % Wilson confidence-interval table for the top-1 success rate
    /// at one threshold — the headline Fig. 6 numbers with error bars.
    ///
    /// # Panics
    ///
    /// Panics if `threshold_m` was not part of the sweep.
    pub fn interval_table(&self, threshold_m: f64) -> Table {
        let idx = self
            .thresholds_m
            .iter()
            .position(|&t| t == threshold_m)
            .expect("threshold must be one of the swept values");
        let mut t = Table::new(
            format!("Fig. 6 — top-1 success within {threshold_m:.0} m (95% Wilson CI)"),
            &["configuration", "rate", "95% CI low", "95% CI high"],
        );
        for arm in &self.arms {
            let successes = (arm.top1[idx] * self.users as f64).round() as usize;
            let (lo, hi) =
                privlocad_metrics::stats::wilson_interval(successes, self.users, 0.95);
            t.push_row(vec![arm.label.clone(), pct(arm.top1[idx]), pct(lo), pct(hi)]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            users: 25,
            one_time_levels: vec![4f64.ln()],
            defense_epsilons: vec![1.0],
            ..Config::default()
        }
    }

    #[test]
    fn one_time_leaks_and_defense_holds() {
        let out = run(&small());
        assert_eq!(out.arms.len(), 2);
        let idx_200 = out.thresholds_m.iter().position(|&t| t == 200.0).unwrap();
        let attack = &out.arms[0];
        let defense = &out.arms[1];
        assert!(
            attack.top1[idx_200] > 0.6,
            "one-time top-1@200m {}",
            attack.top1[idx_200]
        );
        assert!(
            defense.top1[idx_200] < 0.1,
            "defense top-1@200m {}",
            defense.top1[idx_200]
        );
        // Defense strictly better (lower recovery) than the attacked
        // baseline at every threshold.
        for k in 0..out.thresholds_m.len() {
            assert!(defense.top1[k] <= attack.top1[k] + 1e-9);
        }
    }

    #[test]
    fn curves_are_monotone_in_threshold() {
        let out = run(&small());
        for arm in &out.arms {
            for w in arm.top1.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
            for w in arm.top2.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }

    #[test]
    fn table_and_lookup() {
        let out = run(&Config { users: 10, ..small() });
        assert!(out.arm("Edge-PrivLocAd").is_some());
        assert!(out.arm("nonexistent").is_none());
        assert_eq!(out.table().len(), out.arms.len() * 2);
    }

    #[test]
    fn interval_table_brackets_the_rates() {
        let out = run(&Config { users: 20, ..small() });
        let t = out.interval_table(200.0);
        assert_eq!(t.len(), out.arms.len());
        assert!(t.render().contains("Wilson"));
    }

    #[test]
    #[should_panic(expected = "threshold must be one of the swept values")]
    fn interval_table_rejects_unknown_threshold() {
        let out = run(&Config { users: 5, ..small() });
        let _ = out.interval_table(123.0);
    }
}
