//! Special functions needed by the privacy analysis.
//!
//! The analytic geo-IND verifier expresses the exact privacy curve of a
//! Gaussian release through the standard normal CDF; neither `std` nor the
//! allowed dependency set provides `erf`, so a high-accuracy rational
//! approximation lives here.

/// The error function `erf(x)`, accurate to ~1.2e-7 absolute error.
///
/// Uses the Abramowitz–Stegun 7.1.26 rational approximation with the
/// symmetry `erf(−x) = −erf(x)`.
fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    // lint:allow(float-eq): exact-zero fast path; erf(0) = 0 exactly and any other input takes the series branch
    if x == 0.0 {
        return 0.0;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    // Abramowitz & Stegun 7.1.26.
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// The standard normal cumulative distribution function `Φ(x)`.
///
/// # Examples
///
/// ```
/// use privlocad_mechanisms::special::normal_cdf;
///
/// assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
/// assert!((normal_cdf(1.959964) - 0.975).abs() < 1e-5);
/// ```
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Inverse of the standard normal CDF (the probit function).
///
/// Uses the Acklam rational approximation (relative error < 1.15e-9) with
/// one Halley refinement step through [`normal_cdf`].
///
/// # Panics
///
/// Panics if `p` is outside the open interval `(0, 1)`.
///
/// # Examples
///
/// ```
/// use privlocad_mechanisms::special::normal_quantile;
///
/// assert!(normal_quantile(0.5).abs() < 1e-8);
/// assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
/// ```
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability {p} must be in (0, 1)");
    // Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley step sharpens the tail where our erf approximation allows.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_symmetry_and_limits() {
        for &x in &[0.1, 0.5, 1.0, 2.0, 3.0] {
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
        }
        assert!(erf(6.0) > 0.999_999_9);
        assert!(erf(-6.0) < -0.999_999_9);
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from standard tables.
        let cases = [
            (0.5, 0.520_499_877_8),
            (1.0, 0.842_700_792_9),
            (1.5, 0.966_105_146_5),
            (2.0, 0.995_322_265_0),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 2e-7, "erf({x}) = {} want {want}", erf(x));
        }
    }

    #[test]
    fn normal_cdf_reference_values() {
        let cases = [
            (-3.0, 0.001_349_898),
            (-1.0, 0.158_655_25),
            (0.0, 0.5),
            (1.0, 0.841_344_75),
            (1.644_854, 0.95),
            (2.326_348, 0.99),
        ];
        for (x, want) in cases {
            assert!(
                (normal_cdf(x) - want).abs() < 2e-6,
                "Phi({x}) = {} want {want}",
                normal_cdf(x)
            );
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p={p} x={x} cdf={}", normal_cdf(x));
        }
    }

    #[test]
    fn quantile_symmetry() {
        for &p in &[0.01, 0.1, 0.25, 0.4] {
            assert!((normal_quantile(p) + normal_quantile(1.0 - p)).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1)")]
    fn quantile_rejects_zero() {
        let _ = normal_quantile(0.0);
    }
}
