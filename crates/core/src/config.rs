use privlocad_mechanisms::{GeoIndParams, PlanarLaplaceParams};
use serde::{Deserialize, Serialize};

use crate::SystemError;

/// The η threshold of the frequent-location set (Definition 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EtaThreshold {
    /// Absolute check-in count: the top set must cover at least this many
    /// check-ins.
    Count(usize),
    /// Fraction of the window's total check-ins, in `(0, 1]`.
    Fraction(f64),
}

impl EtaThreshold {
    /// Resolves the threshold to an absolute count for a window with
    /// `total` check-ins.
    pub fn resolve(&self, total: usize) -> usize {
        match *self {
            EtaThreshold::Count(c) => c,
            EtaThreshold::Fraction(f) => (f * total as f64).ceil() as usize,
        }
    }
}

/// Which output-selection strategy the edge applies (Algorithm 4 vs the
/// uniform ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SelectionKind {
    /// Posterior-proportional selection (Algorithm 4) — the paper's design.
    #[default]
    Posterior,
    /// Uniform selection over the candidates — ablation baseline.
    Uniform,
}

/// Full configuration of an Edge-PrivLocAd deployment.
///
/// Defaults follow Section VII-A: `(r = 500 m, ε = 1, δ = 0.01, n = 10)`
/// geo-IND for top locations, planar Laplace at `l = ln 4, r = 200 m` for
/// nomadic check-ins, η = 80 % of window check-ins, a 90-day profile
/// window, and a 5 km targeting radius.
///
/// # Examples
///
/// ```
/// use privlocad::SystemConfig;
///
/// let config = SystemConfig::builder().n_fold(5).epsilon(1.5).build()?;
/// assert_eq!(config.geo_ind().n(), 5);
/// assert_eq!(config.geo_ind().epsilon(), 1.5);
/// # Ok::<(), privlocad::SystemError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    geo_ind: GeoIndParams,
    nomadic: PlanarLaplaceParams,
    eta: EtaThreshold,
    profile_theta_m: f64,
    top_match_radius_m: f64,
    window_days: u32,
    targeting_radius_m: f64,
    selection: SelectionKind,
}

impl SystemConfig {
    /// Starts a builder with the paper's defaults.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::default()
    }

    /// The `(r, ε, δ, n)` parameters of the n-fold Gaussian mechanism.
    pub fn geo_ind(&self) -> GeoIndParams {
        self.geo_ind
    }

    /// The planar-Laplace parameters protecting nomadic check-ins.
    pub fn nomadic(&self) -> PlanarLaplaceParams {
        self.nomadic
    }

    /// The η threshold of the frequent-location set.
    pub fn eta(&self) -> EtaThreshold {
        self.eta
    }

    /// Connectivity threshold for profiling, meters (paper: 50 m).
    pub fn profile_theta_m(&self) -> f64 {
        self.profile_theta_m
    }

    /// How close a current location must be to a known top location to use
    /// its permanent candidates instead of the nomadic fallback.
    pub fn top_match_radius_m(&self) -> f64 {
        self.top_match_radius_m
    }

    /// Profile re-computation window in days (paper: "every three months").
    pub fn window_days(&self) -> u32 {
        self.window_days
    }

    /// The campaign targeting radius `R` used for ad filtering, meters.
    pub fn targeting_radius_m(&self) -> f64 {
        self.targeting_radius_m
    }

    /// The configured output-selection strategy.
    pub fn selection(&self) -> SelectionKind {
        self.selection
    }
}

/// Builder for [`SystemConfig`].
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    r: f64,
    epsilon: f64,
    delta: f64,
    n: usize,
    nomadic_l: f64,
    nomadic_r: f64,
    eta: EtaThreshold,
    profile_theta_m: f64,
    top_match_radius_m: f64,
    window_days: u32,
    targeting_radius_m: f64,
    selection: SelectionKind,
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        SystemConfigBuilder {
            r: 500.0,
            epsilon: 1.0,
            delta: 0.01,
            n: 10,
            nomadic_l: 4f64.ln(),
            nomadic_r: 200.0,
            eta: EtaThreshold::Fraction(0.8),
            profile_theta_m: 50.0,
            top_match_radius_m: 200.0,
            window_days: 90,
            targeting_radius_m: 5_000.0,
            selection: SelectionKind::Posterior,
        }
    }
}

impl SystemConfigBuilder {
    /// Sets the geo-IND radius `r` in meters (default 500).
    pub fn radius(mut self, r: f64) -> Self {
        self.r = r;
        self
    }

    /// Sets the privacy level ε (default 1).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the failure probability δ (default 0.01).
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the number of permanent candidates n (default 10).
    pub fn n_fold(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Sets the η threshold (default 80 % of window check-ins).
    pub fn eta(mut self, eta: EtaThreshold) -> Self {
        self.eta = eta;
        self
    }

    /// Sets the profiling connectivity threshold in meters (default 50).
    pub fn profile_theta_m(mut self, theta: f64) -> Self {
        self.profile_theta_m = theta;
        self
    }

    /// Sets the top-location match radius in meters (default 200).
    pub fn top_match_radius_m(mut self, r: f64) -> Self {
        self.top_match_radius_m = r;
        self
    }

    /// Sets the profile window in days (default 90).
    pub fn window_days(mut self, days: u32) -> Self {
        self.window_days = days;
        self
    }

    /// Sets the ad-filtering targeting radius in meters (default 5,000).
    pub fn targeting_radius_m(mut self, r: f64) -> Self {
        self.targeting_radius_m = r;
        self
    }

    /// Sets the output-selection strategy (default posterior).
    pub fn selection(mut self, kind: SelectionKind) -> Self {
        self.selection = kind;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SystemError`] when any parameter is out of range.
    pub fn build(self) -> Result<SystemConfig, SystemError> {
        let geo_ind = GeoIndParams::new(self.r, self.epsilon, self.delta, self.n)?;
        let nomadic = PlanarLaplaceParams::from_level(self.nomadic_l, self.nomadic_r)?;
        if let EtaThreshold::Fraction(f) = self.eta {
            if !(f > 0.0 && f <= 1.0) {
                return Err(SystemError::InvalidEta(f));
            }
        }
        if !(self.profile_theta_m.is_finite() && self.profile_theta_m > 0.0) {
            return Err(SystemError::InvalidLength(self.profile_theta_m));
        }
        if !(self.top_match_radius_m.is_finite() && self.top_match_radius_m > 0.0) {
            return Err(SystemError::InvalidLength(self.top_match_radius_m));
        }
        if !(self.targeting_radius_m.is_finite() && self.targeting_radius_m > 0.0) {
            return Err(SystemError::InvalidLength(self.targeting_radius_m));
        }
        if self.window_days == 0 {
            return Err(SystemError::InvalidWindow);
        }
        Ok(SystemConfig {
            geo_ind,
            nomadic,
            eta: self.eta,
            profile_theta_m: self.profile_theta_m,
            top_match_radius_m: self.top_match_radius_m,
            window_days: self.window_days,
            targeting_radius_m: self.targeting_radius_m,
            selection: self.selection,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SystemConfig::builder().build().unwrap();
        assert_eq!(c.geo_ind().r(), 500.0);
        assert_eq!(c.geo_ind().epsilon(), 1.0);
        assert_eq!(c.geo_ind().delta(), 0.01);
        assert_eq!(c.geo_ind().n(), 10);
        assert_eq!(c.profile_theta_m(), 50.0);
        assert_eq!(c.window_days(), 90);
        assert_eq!(c.targeting_radius_m(), 5_000.0);
        assert_eq!(c.selection(), SelectionKind::Posterior);
        assert!((c.nomadic().epsilon_per_meter() - 4f64.ln() / 200.0).abs() < 1e-15);
    }

    #[test]
    fn eta_resolution() {
        assert_eq!(EtaThreshold::Count(100).resolve(1_000), 100);
        assert_eq!(EtaThreshold::Fraction(0.8).resolve(1_000), 800);
        assert_eq!(EtaThreshold::Fraction(0.85).resolve(10), 9); // ceil
    }

    #[test]
    fn builder_setters() {
        let c = SystemConfig::builder()
            .radius(700.0)
            .epsilon(1.5)
            .delta(0.005)
            .n_fold(4)
            .eta(EtaThreshold::Count(500))
            .profile_theta_m(25.0)
            .top_match_radius_m(300.0)
            .window_days(30)
            .targeting_radius_m(10_000.0)
            .selection(SelectionKind::Uniform)
            .build()
            .unwrap();
        assert_eq!(c.geo_ind().r(), 700.0);
        assert_eq!(c.geo_ind().n(), 4);
        assert_eq!(c.eta(), EtaThreshold::Count(500));
        assert_eq!(c.profile_theta_m(), 25.0);
        assert_eq!(c.top_match_radius_m(), 300.0);
        assert_eq!(c.window_days(), 30);
        assert_eq!(c.targeting_radius_m(), 10_000.0);
        assert_eq!(c.selection(), SelectionKind::Uniform);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            SystemConfig::builder().epsilon(0.0).build(),
            Err(SystemError::Mechanism(_))
        ));
        assert!(matches!(
            SystemConfig::builder().eta(EtaThreshold::Fraction(0.0)).build(),
            Err(SystemError::InvalidEta(_))
        ));
        assert!(matches!(
            SystemConfig::builder().eta(EtaThreshold::Fraction(1.5)).build(),
            Err(SystemError::InvalidEta(_))
        ));
        assert!(matches!(
            SystemConfig::builder().profile_theta_m(0.0).build(),
            Err(SystemError::InvalidLength(_))
        ));
        assert!(matches!(
            SystemConfig::builder().top_match_radius_m(f64::NAN).build(),
            Err(SystemError::InvalidLength(_))
        ));
        assert!(matches!(
            SystemConfig::builder().targeting_radius_m(-1.0).build(),
            Err(SystemError::InvalidLength(_))
        ));
        assert!(matches!(
            SystemConfig::builder().window_days(0).build(),
            Err(SystemError::InvalidWindow)
        ));
    }
}
