//! Privacy-budget accounting helpers.
//!
//! The paper's motivation rests on the basic composition theorem of
//! differential privacy: releasing `k` independent `(ε, δ)` obfuscations of
//! the *same* location yields only `(k·ε, k·δ)` overall — the longitudinal
//! attacker exploits exactly this degradation. These helpers make that
//! arithmetic explicit for the evaluation harness and the documentation.

use crate::MechanismError;

/// Basic (sequential) composition: `k` releases at `(ε, δ)` each compose to
/// `(k·ε, k·δ)`.
///
/// # Errors
///
/// Returns a [`MechanismError`] if `ε ≤ 0`, `δ ∉ (0, 1)` or `k = 0`.
///
/// # Examples
///
/// ```
/// use privlocad_mechanisms::basic_composition;
///
/// let (eps, delta) = basic_composition(0.1, 1e-4, 10)?;
/// assert!((eps - 1.0).abs() < 1e-12);
/// assert!((delta - 1e-3).abs() < 1e-15);
/// # Ok::<(), privlocad_mechanisms::MechanismError>(())
/// ```
pub fn basic_composition(epsilon: f64, delta: f64, k: usize) -> Result<(f64, f64), MechanismError> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(MechanismError::InvalidEpsilon(epsilon));
    }
    if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 {
        return Err(MechanismError::InvalidDelta(delta));
    }
    if k == 0 {
        return Err(MechanismError::InvalidFold(0));
    }
    Ok((epsilon * k as f64, delta * k as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composition_grows_linearly() {
        let (e, d) = basic_composition(0.5, 0.001, 4).unwrap();
        assert!((e - 2.0).abs() < 1e-12);
        assert!((d - 0.004).abs() < 1e-15);
    }

    #[test]
    fn longitudinal_exposure_degrades_privacy() {
        // The attack scenario: ~1000 check-ins of the same top location
        // each at ε·d privacy; the composed guarantee is useless.
        let (e, _) = basic_composition(2f64.ln(), 1e-9, 1_000).unwrap();
        assert!(e > 600.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(basic_composition(0.0, 0.01, 1).is_err());
        assert!(basic_composition(1.0, 0.0, 1).is_err());
        assert!(basic_composition(1.0, 1.0, 1).is_err());
        assert!(basic_composition(1.0, 0.01, 0).is_err());
    }
}
