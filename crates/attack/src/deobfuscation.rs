use privlocad_geo::Point;
use privlocad_mechanisms::{MechanismError, NFoldGaussian, PlanarLaplace};
use serde::{Deserialize, Serialize};

use crate::clustering::{connectivity_clusters_with, ClusterScratch};

/// Configuration of the top-n de-obfuscation attack (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackConfig {
    /// Connectivity threshold θ in meters: two check-ins are connected if
    /// within this distance. The paper uses 50 m.
    pub theta: f64,
    /// Cluster radius `r_α` in meters for the trimming stage — the
    /// confidence radius of the obfuscation noise beyond which an
    /// obfuscated check-in is "almost impossible" (Equation 4; the paper
    /// uses `r₀.₀₅`).
    pub cluster_radius: f64,
    /// Whether to run the trimming stage. Disabling it is the ablation of
    /// DESIGN.md: without trimming the attack must rely on raw connected
    /// components, which fragment under heavy noise.
    pub trimming: bool,
    /// Safety bound on trimming iterations (the fixpoint loop of
    /// Algorithm 1 lines 11–19 converges quickly in practice).
    pub max_trim_iterations: usize,
}

impl AttackConfig {
    /// Creates a validated configuration with trimming enabled.
    ///
    /// # Panics
    ///
    /// Panics if `theta` or `cluster_radius` is not positive and finite.
    pub fn new(theta: f64, cluster_radius: f64) -> Self {
        assert!(theta.is_finite() && theta > 0.0, "theta must be positive and finite");
        assert!(
            cluster_radius.is_finite() && cluster_radius > 0.0,
            "cluster radius must be positive and finite"
        );
        AttackConfig { theta, cluster_radius, trimming: true, max_trim_iterations: 100 }
    }

    /// Returns the configuration with the trimming stage disabled.
    pub fn without_trimming(mut self) -> Self {
        self.trimming = false;
        self
    }
}

/// One inferred top location, produced by
/// [`DeobfuscationAttack::infer_top_locations`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferredLocation {
    /// 0-based rank: 0 is the inferred top-1 location.
    pub rank: usize,
    /// The inferred coordinate (cluster centroid).
    pub location: Point,
    /// Number of check-ins supporting the inference.
    pub support: usize,
}

/// The top-n location de-obfuscation attack of Algorithm 1.
///
/// The attack alternates two stages per extracted location:
///
/// 1. **Clustering** — connectivity-based clustering at threshold θ finds
///    the largest connected component of the remaining check-ins. Under
///    heavy noise the components fragment, but the largest fragment still
///    sits near the densest region (the top location).
/// 2. **Trimming** — starting from that fragment, iterate to a fixpoint:
///    drop members farther than `r_α` from the current centroid, then
///    absorb *any* remaining check-in within `r_α` of the centroid. This
///    re-assembles the full noise cloud around the top location and washes
///    out the noise by averaging.
///
/// After each extraction the absorbed check-ins are removed and the
/// procedure repeats for the next rank.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeobfuscationAttack {
    config: AttackConfig,
}

impl DeobfuscationAttack {
    /// Creates the attack from an explicit configuration.
    pub fn new(config: AttackConfig) -> Self {
        DeobfuscationAttack { config }
    }

    /// Convenience constructor targeting check-ins obfuscated by the planar
    /// Laplace mechanism: the cluster radius is the mechanism's `r_α`
    /// confidence radius (Equation 4) and θ defaults to the paper's 50 m.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidProbability`] if `alpha ∉ (0, 1)`.
    pub fn for_planar_laplace(mech: &PlanarLaplace, alpha: f64) -> Result<Self, MechanismError> {
        let r_alpha = mech.confidence_radius(alpha)?;
        Ok(Self::new(AttackConfig::new(50.0, r_alpha)))
    }

    /// Convenience constructor targeting outputs of the (n-fold) Gaussian
    /// mechanism, with `r_α` from the Rayleigh tail of its noise.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidProbability`] if `alpha ∉ (0, 1)`.
    pub fn for_gaussian(mech: &NFoldGaussian, alpha: f64) -> Result<Self, MechanismError> {
        let r_alpha = mech.confidence_radius(alpha)?;
        Ok(Self::new(AttackConfig::new(50.0, r_alpha)))
    }

    /// The attack configuration.
    pub fn config(&self) -> AttackConfig {
        self.config
    }

    /// Infers up to `k` top locations from the observed check-ins,
    /// best-supported first (Algorithm 1).
    ///
    /// Fewer than `k` locations are returned if the check-ins run out.
    pub fn infer_top_locations(&self, checkins: &[Point], k: usize) -> Vec<InferredLocation> {
        self.infer_top_locations_with(checkins, k, &mut AttackScratch::default())
    }

    /// [`DeobfuscationAttack::infer_top_locations`] with caller-owned
    /// scratch buffers.
    ///
    /// Monte-Carlo sweeps run the attack once per trial over fresh
    /// check-in streams; passing the same [`AttackScratch`] keeps the
    /// clustering and working buffers allocated across trials. The
    /// scratch never changes results — it is pure acceleration state.
    fn infer_top_locations_with(
        &self,
        checkins: &[Point],
        k: usize,
        scratch: &mut AttackScratch,
    ) -> Vec<InferredLocation> {
        let pool = &mut scratch.pool;
        pool.clear();
        pool.extend_from_slice(checkins);
        let mut results = Vec::with_capacity(k);
        for rank in 0..k {
            if pool.is_empty() {
                break;
            }
            let clusters =
                connectivity_clusters_with(pool, self.config.theta, &mut scratch.clusters);
            let seed_members = clusters[0].members.clone();
            let members = if self.config.trimming {
                self.trim(pool, seed_members, &mut scratch.in_cluster)
            } else {
                seed_members
            };
            // lint:allow(panic-hygiene): provably infallible — members always contains at least the largest-component seed
            let center = mean_of(pool, &members).expect("non-empty cluster");
            results.push(InferredLocation { rank, location: center, support: members.len() });
            // Remove the absorbed check-ins before extracting the next
            // rank, compacting the pool in place.
            let absorbed = &mut scratch.in_cluster;
            absorbed.clear();
            absorbed.resize(pool.len(), false);
            for &i in &members {
                absorbed[i] = true;
            }
            let mut kept = 0;
            for i in 0..pool.len() {
                if !absorbed[i] {
                    pool[kept] = pool[i];
                    kept += 1;
                }
            }
            pool.truncate(kept);
        }
        results
    }

    /// The trimming fixpoint of Algorithm 1 (lines 10–19): returns the
    /// final member indices into `pool`. `in_cluster` is a reused
    /// membership bitmap.
    fn trim(&self, pool: &[Point], seed: Vec<usize>, in_cluster: &mut Vec<bool>) -> Vec<usize> {
        let r_sq = self.config.cluster_radius * self.config.cluster_radius;
        in_cluster.clear();
        in_cluster.resize(pool.len(), false);
        for &i in &seed {
            in_cluster[i] = true;
        }
        let mut members = seed.clone();
        for _ in 0..self.config.max_trim_iterations {
            let Some(center) = mean_of(pool, &members) else { break };
            let mut changed = false;
            // Discard members beyond r_α of the centroid…
            for &i in &members {
                if pool[i].distance_sq(center) > r_sq {
                    in_cluster[i] = false;
                    changed = true;
                }
            }
            // …then absorb any remaining check-in within r_α.
            for (i, p) in pool.iter().enumerate() {
                if !in_cluster[i] && p.distance_sq(center) <= r_sq {
                    in_cluster[i] = true;
                    changed = true;
                }
            }
            members.clear();
            members.extend((0..pool.len()).filter(|&i| in_cluster[i]));
            if !changed {
                break;
            }
            if members.is_empty() {
                break;
            }
        }
        if members.is_empty() {
            // Degenerate r_α (smaller than the seed spread): fall back to
            // the untrimmed seed so the attack still reports something.
            return seed;
        }
        members
    }
}

/// Streaming mean of the points selected by `members` — no temporary
/// point buffer.
fn mean_of(pool: &[Point], members: &[usize]) -> Option<Point> {
    if members.is_empty() {
        return None;
    }
    let mut sum = Point::ORIGIN;
    for &i in members {
        sum += pool[i];
    }
    Some(Point::new(sum.x / members.len() as f64, sum.y / members.len() as f64))
}

/// Reusable working memory for [`DeobfuscationAttack::infer_top_locations_with`]:
/// the clustering buffers, the mutable check-in pool, and the trimming
/// membership bitmap all survive across invocations.
#[derive(Debug, Default)]
struct AttackScratch {
    clusters: ClusterScratch,
    pool: Vec<Point>,
    in_cluster: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_geo::rng::seeded;
    use privlocad_mechanisms::{Lppm, PlanarLaplaceParams};

    fn laplace(l: f64) -> PlanarLaplace {
        PlanarLaplace::new(PlanarLaplaceParams::from_level(l, 200.0).unwrap())
    }

    /// Obfuscated check-ins for a user with two top locations.
    fn observed_checkins(
        mech: &PlanarLaplace,
        top1: Point,
        n1: usize,
        top2: Point,
        n2: usize,
        seed: u64,
    ) -> Vec<Point> {
        let mut rng = seeded(seed);
        let mut pts: Vec<Point> = (0..n1).map(|_| mech.sample(top1, &mut rng)).collect();
        pts.extend((0..n2).map(|_| mech.sample(top2, &mut rng)));
        pts
    }

    #[test]
    fn recovers_single_top_location_under_laplace() {
        let mech = laplace(4f64.ln());
        let home = Point::new(2_000.0, -3_000.0);
        let obs = observed_checkins(&mech, home, 800, Point::new(50_000.0, 0.0), 0, 7);
        let attack = DeobfuscationAttack::for_planar_laplace(&mech, 0.05).unwrap();
        let inferred = attack.infer_top_locations(&obs, 1);
        assert_eq!(inferred.len(), 1);
        assert_eq!(inferred[0].rank, 0);
        assert!(
            inferred[0].location.distance(home) < 100.0,
            "inference error {} m",
            inferred[0].location.distance(home)
        );
        assert!(inferred[0].support > 600);
    }

    #[test]
    fn recovers_two_top_locations_in_rank_order() {
        let mech = laplace(4f64.ln());
        let home = Point::new(0.0, 0.0);
        let office = Point::new(12_000.0, 5_000.0);
        let obs = observed_checkins(&mech, home, 900, office, 450, 11);
        let attack = DeobfuscationAttack::for_planar_laplace(&mech, 0.05).unwrap();
        let inferred = attack.infer_top_locations(&obs, 2);
        assert_eq!(inferred.len(), 2);
        assert!(inferred[0].location.distance(home) < 150.0);
        assert!(inferred[1].location.distance(office) < 200.0);
        assert!(inferred[0].support > inferred[1].support);
    }

    #[test]
    fn accuracy_improves_with_observation_window() {
        // Fig. 4's qualitative claim: more check-ins, better inference.
        let mech = laplace(4f64.ln());
        let home = Point::new(500.0, 500.0);
        let attack = DeobfuscationAttack::for_planar_laplace(&mech, 0.05).unwrap();
        let err = |n: usize| -> f64 {
            let mut total = 0.0;
            for seed in 0..10u64 {
                let obs = observed_checkins(&mech, home, n, Point::ORIGIN, 0, 100 + seed);
                let inf = attack.infer_top_locations(&obs, 1);
                total += inf[0].location.distance(home);
            }
            total / 10.0
        };
        let week = err(40); // ~ one week of check-ins
        let year = err(2_000); // ~ a full year
        assert!(year < week, "year {year} week {week}");
        assert!(year < 60.0, "full-year error {year} m should be tens of meters");
    }

    #[test]
    fn trimming_rescues_fragmented_clusters() {
        // Under the strictest privacy level the noise cloud is sparse and
        // the θ = 50 m graph fragments; trimming must still assemble it.
        let mech = laplace(2f64.ln());
        let home = Point::new(0.0, 0.0);
        let obs = observed_checkins(&mech, home, 1_000, Point::ORIGIN, 0, 21);
        let with = DeobfuscationAttack::for_planar_laplace(&mech, 0.05).unwrap();
        let without = DeobfuscationAttack::new(with.config().without_trimming());
        let e_with = with.infer_top_locations(&obs, 1)[0].location.distance(home);
        let e_without = without.infer_top_locations(&obs, 1)[0].location.distance(home);
        assert!(e_with < 150.0, "with trimming {e_with}");
        // Without trimming the fragment centroid is supported by far fewer
        // points; it should be no better than the trimmed inference.
        assert!(e_with <= e_without + 50.0, "with {e_with} without {e_without}");
    }

    #[test]
    fn defense_outputs_resist_the_attack() {
        // Check-ins produced by the permanent 10-fold Gaussian mechanism:
        // the attacker sees repeats of 10 fixed candidates and cannot get
        // near the true location.
        use privlocad_mechanisms::{GeoIndParams, NFoldGaussian};
        let params = GeoIndParams::new(500.0, 1.0, 0.01, 10).unwrap();
        let mech = NFoldGaussian::new(params);
        let mut rng = seeded(31);
        let home = Point::new(0.0, 0.0);
        let candidates = mech.obfuscate(home, &mut rng);
        // A year of reports drawn from the permanent candidates.
        let mut reports = Vec::new();
        for i in 0..1_000usize {
            reports.push(candidates[i % candidates.len()]);
        }
        let attack = DeobfuscationAttack::for_gaussian(&mech, 0.05).unwrap();
        let inferred = attack.infer_top_locations(&reports, 1);
        // The best the attacker can do concentrates at σ/√n scale — far
        // beyond the 200 m success threshold with overwhelming probability.
        assert!(
            inferred[0].location.distance(home) > 200.0,
            "defense leaked: error {} m",
            inferred[0].location.distance(home)
        );
    }

    #[test]
    fn empty_input_yields_no_locations() {
        let attack = DeobfuscationAttack::new(AttackConfig::new(50.0, 500.0));
        assert!(attack.infer_top_locations(&[], 3).is_empty());
    }

    #[test]
    fn requests_beyond_available_clusters_are_truncated() {
        let attack = DeobfuscationAttack::new(AttackConfig::new(50.0, 100.0));
        let pts = vec![Point::ORIGIN; 10];
        let inferred = attack.infer_top_locations(&pts, 5);
        // One cluster absorbs everything; no check-ins remain for rank 2.
        assert_eq!(inferred.len(), 1);
        assert_eq!(inferred[0].support, 10);
    }

    #[test]
    fn config_accessors_and_ablation() {
        let cfg = AttackConfig::new(50.0, 700.0);
        assert!(cfg.trimming);
        let ablated = cfg.without_trimming();
        assert!(!ablated.trimming);
        assert_eq!(ablated.theta, 50.0);
        assert_eq!(ablated.cluster_radius, 700.0);
        let attack = DeobfuscationAttack::new(cfg);
        assert_eq!(attack.config(), cfg);
    }

    #[test]
    #[should_panic(expected = "theta must be positive")]
    fn rejects_bad_theta() {
        let _ = AttackConfig::new(-1.0, 100.0);
    }

    #[test]
    #[should_panic(expected = "cluster radius must be positive")]
    fn rejects_bad_radius() {
        let _ = AttackConfig::new(50.0, f64::INFINITY);
    }

    #[test]
    fn constructor_propagates_alpha_errors() {
        let mech = laplace(2f64.ln());
        assert!(DeobfuscationAttack::for_planar_laplace(&mech, 0.0).is_err());
        assert!(DeobfuscationAttack::for_planar_laplace(&mech, 1.0).is_err());
    }

    #[test]
    fn reused_scratch_matches_fresh_inference() {
        let mech = laplace(4f64.ln());
        let attack = DeobfuscationAttack::for_planar_laplace(&mech, 0.05).unwrap();
        let mut scratch = AttackScratch::default();
        for seed in 0..3u64 {
            let obs = observed_checkins(
                &mech,
                Point::new(0.0, 0.0),
                400,
                Point::new(10_000.0, 0.0),
                200,
                80 + seed,
            );
            let fresh = attack.infer_top_locations(&obs, 2);
            let reused = attack.infer_top_locations_with(&obs, 2, &mut scratch);
            assert_eq!(fresh, reused, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_given_same_input() {
        let mech = laplace(4f64.ln());
        let obs = observed_checkins(&mech, Point::ORIGIN, 300, Point::new(9_000.0, 0.0), 150, 55);
        let attack = DeobfuscationAttack::for_planar_laplace(&mech, 0.05).unwrap();
        let a = attack.infer_top_locations(&obs, 2);
        let b = attack.infer_top_locations(&obs, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn one_time_geoind_leaks_via_lppm_trait() {
        // End-to-end shape of Section III: every check-in independently
        // obfuscated through the Lppm interface.
        let mech = laplace(6f64.ln());
        let home = Point::new(-4_000.0, 2_500.0);
        let mut rng = seeded(61);
        let obs: Vec<Point> = (0..700).flat_map(|_| mech.obfuscate(home, &mut rng)).collect();
        let attack = DeobfuscationAttack::for_planar_laplace(&mech, 0.05).unwrap();
        let top1 = &attack.infer_top_locations(&obs, 1)[0];
        assert!(top1.location.distance(home) < 100.0);
    }
}
