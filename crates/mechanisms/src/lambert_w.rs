//! The real branches of the Lambert W function.
//!
//! `W(x)` is the inverse of `w ↦ w·eʷ`. The planar Laplace mechanism's
//! radial quantile function (Andrés et al., CCS 2013) is
//! `C⁻¹(p) = −(1/ε)·(W₋₁((p−1)/e) + 1)`, which needs the secondary real
//! branch `W₋₁` on `[−1/e, 0)`. Both real branches are provided; each is
//! computed with a branch-appropriate initial guess refined by Halley's
//! method to full double precision.

/// `1/e`, the branch point of the real Lambert W function.
// lint:allow(dead-pub): integration-test hook: the mechanisms proptests bound the Lambert W domain with it
pub const INV_E: f64 = 1.0 / std::f64::consts::E;

/// Halley refinement of `w` such that `w·eʷ = x`.
fn halley(mut w: f64, x: f64) -> f64 {
    // The Halley denominator degenerates at the branch point w = −1, where
    // the series initial guess is already accurate to O((1+w)³).
    if (w + 1.0).abs() < 1e-7 {
        return w;
    }
    for _ in 0..50 {
        let ew = w.exp();
        let f = w * ew - x;
        // lint:allow(float-eq): Halley residual hit zero exactly; any tolerance here would mask true convergence
        if f == 0.0 {
            break;
        }
        let denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0);
        let step = f / denom;
        w -= step;
        if step.abs() <= 1e-16 * (1.0 + w.abs()) {
            break;
        }
    }
    w
}

/// Principal branch `W₀(x)` for `x ≥ −1/e`.
///
/// Returns `NaN` for `x < −1/e` where no real value exists.
///
/// # Examples
///
/// ```
/// use privlocad_mechanisms::lambert_w::w0;
///
/// let w = w0(1.0); // Ω constant ≈ 0.567143
/// assert!((w * w.exp() - 1.0).abs() < 1e-12);
/// ```
// lint:allow(dead-pub): integration-test hook: the mechanisms proptests check the W identity on both real branches with it
pub fn w0(x: f64) -> f64 {
    if x.is_nan() || x < -INV_E {
        return f64::NAN;
    }
    // lint:allow(float-eq): W(0) = 0 is an exact special point; nearby inputs are handled by the series below
    if x == 0.0 {
        return 0.0;
    }
    if (x + INV_E).abs() < 1e-300 {
        return -1.0;
    }
    // Initial guesses per Corless et al. (1996).
    let guess = if x < -0.25 {
        // Series around the branch point: W ≈ −1 + p − p²/3, p = sqrt(2(ex+1)).
        let p = (2.0 * (std::f64::consts::E * x + 1.0)).max(0.0).sqrt();
        -1.0 + p - p * p / 3.0
    } else if x < std::f64::consts::E {
        // Padé-flavored guess near zero; adequate up to x = e where W = 1.
        x * (1.0 - x + 1.5 * x * x) / (1.0 - 0.5 * x + x * x)
    } else {
        // Asymptotic: W ≈ ln x − ln ln x for large x (> e, so ln ln x is finite).
        let l1 = x.ln();
        let l2 = l1.ln();
        l1 - l2 + l2 / l1
    };
    halley(guess, x)
}

/// Secondary real branch `W₋₁(x)` for `x ∈ [−1/e, 0)`.
///
/// Returns `NaN` outside the domain. This branch satisfies `W₋₁(x) ≤ −1`
/// and diverges to `−∞` as `x → 0⁻`.
///
/// # Examples
///
/// ```
/// use privlocad_mechanisms::lambert_w::w_m1;
///
/// let x = -0.1;
/// let w = w_m1(x);
/// assert!(w < -1.0);
/// assert!((w * w.exp() - x).abs() < 1e-12);
/// ```
pub fn w_m1(x: f64) -> f64 {
    if x.is_nan() || !(-INV_E..0.0).contains(&x) {
        return f64::NAN;
    }
    if (x + INV_E).abs() < 1e-300 {
        return -1.0;
    }
    let guess = if x < -0.25 {
        // Branch-point series with the negative root: W ≈ −1 − p − p²/3.
        let p = (2.0 * (std::f64::consts::E * x + 1.0)).max(0.0).sqrt();
        -1.0 - p - p * p / 3.0
    } else {
        // Asymptotic near 0⁻: W₋₁ ≈ ln(−x) − ln(−ln(−x)).
        let l1 = (-x).ln();
        let l2 = (-l1).ln();
        l1 - l2 + l2 / l1
    };
    halley(guess, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_identity(w: f64, x: f64) {
        assert!(
            (w * w.exp() - x).abs() <= 1e-12 * (1.0 + x.abs()),
            "w e^w = {} != {x} (w = {w})",
            w * w.exp()
        );
    }

    #[test]
    fn w0_known_values() {
        assert!((w0(0.0)).abs() < 1e-15);
        assert!((w0(std::f64::consts::E) - 1.0).abs() < 1e-12);
        assert!((w0(1.0) - 0.567_143_290_409_783_8).abs() < 1e-12);
        assert!((w0(-INV_E) + 1.0).abs() < 1e-7);
    }

    #[test]
    fn w0_identity_over_domain() {
        for &x in &[-0.367, -0.3, -0.1, -1e-6, 1e-6, 0.5, 1.0, 5.0, 100.0, 1e6, 1e12] {
            check_identity(w0(x), x);
        }
    }

    #[test]
    fn w_m1_known_values() {
        assert!((w_m1(-INV_E) + 1.0).abs() < 1e-7);
        // W₋₁(−0.1) ≈ −3.577152063957297
        assert!((w_m1(-0.1) + 3.577_152_063_957_297).abs() < 1e-10);
    }

    #[test]
    fn w_m1_identity_over_domain() {
        for &x in &[-0.3678, -0.36, -0.3, -0.2, -0.1, -0.01, -1e-4, -1e-8, -1e-100] {
            check_identity(w_m1(x), x);
        }
    }

    #[test]
    fn w_m1_below_minus_one() {
        for &x in &[-0.36, -0.2, -0.05, -1e-3] {
            assert!(w_m1(x) <= -1.0);
        }
    }

    #[test]
    fn branches_agree_only_at_branch_point() {
        let bp = -INV_E;
        assert!((w0(bp) - w_m1(bp)).abs() < 1e-6);
        assert!(w0(-0.2) > w_m1(-0.2));
    }

    #[test]
    fn out_of_domain_is_nan() {
        assert!(w0(-0.4).is_nan());
        assert!(w_m1(-0.4).is_nan());
        assert!(w_m1(0.0).is_nan());
        assert!(w_m1(0.5).is_nan());
        assert!(w0(f64::NAN).is_nan());
        assert!(w_m1(f64::NAN).is_nan());
    }

    #[test]
    fn w_m1_monotone_decreasing_toward_zero() {
        // W₋₁ decreases (towards −∞) as x increases towards 0⁻.
        let xs = [-0.36, -0.3, -0.2, -0.1, -0.05, -0.01, -0.001];
        for pair in xs.windows(2) {
            assert!(w_m1(pair[0]) > w_m1(pair[1]), "not decreasing at {pair:?}");
        }
    }
}
