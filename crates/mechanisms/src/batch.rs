//! Batched candidate generation for the n-fold Gaussian mechanism.
//!
//! Algorithm 3 draws each candidate as (uniform angle, Rayleigh radius) and
//! offsets the real location. The scalar path ([`NFoldGaussian::sample_one`])
//! interleaves generator stepping with the transcendental math at every
//! draw, which defeats autovectorization and costs a `Vec` per candidate
//! set. This module splits the work into two phases over contiguous `f64`
//! lanes:
//!
//! 1. **Fill**: all uniform variates for a batch are drawn into one flat
//!    buffer with [`fill_uniform`], in exactly the order the scalar loop
//!    would consume them (`θ₀, s₀, θ₁, s₁, …` per real location).
//! 2. **Transform**: the angle map `θ = u·2π`, the Rayleigh inverse CDF
//!    `r = σ·sqrt(−2·ln(1−s))`, and the polar offset
//!    `(x, y) = (cx + r·cos θ, cy + r·sin θ)` are each applied in their own
//!    tight loop over contiguous slices, with σ and the center hoisted out,
//!    so LLVM can vectorize the `ln`/`sqrt`/`cos`/`sin` pipelines.
//!
//! Because every expression is written exactly as the scalar path writes it
//! (same literals, same association order) and the fill preserves stream
//! order, the batched output is **bit-for-bit identical** to the scalar
//! loop — the determinism contract of the whole reproduction survives the
//! layout change. See `tests/batched_determinism.rs` for the proof by test.

use std::f64::consts::PI;
use std::ops::Range;

use privlocad_geo::rng::{derive_seed, fill_uniform, seeded};
use privlocad_geo::Point;
use rand::Rng;

use crate::NFoldGaussian;

/// Structure-of-arrays output lanes for batched candidate generation: the
/// `x` and `y` coordinates of every generated candidate, flat in input
/// order (`reals.len() × n` points per batch call).
///
/// Reusing one `CandidateLanes` across batches turns the per-set `Vec`
/// churn of the scalar install path into two amortized buffers.
#[derive(Debug, Clone, Default)]
pub struct CandidateLanes {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl CandidateLanes {
    /// Creates empty lanes.
    pub fn new() -> Self {
        CandidateLanes::default()
    }

    /// Discards the generated points, keeping the allocations.
    pub fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
    }

    /// Number of generated candidate points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Returns `true` if no candidates have been generated.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The `x` coordinates, one lane, flat in generation order.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The `y` coordinates, one lane, flat in generation order.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The `i`-th generated candidate.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn point(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i])
    }

    /// Iterates the generated candidates in order.
    pub fn iter(&self) -> impl Iterator<Item = Point> + '_ {
        self.xs.iter().zip(&self.ys).map(|(&x, &y)| Point::new(x, y))
    }

    /// The candidates in `range`, in order — the handoff from flat lanes
    /// to a permanent [`crate::PosteriorTable`], which reads them without
    /// an intermediate copy.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn points(&self, range: Range<usize>) -> impl ExactSizeIterator<Item = Point> + Clone + '_ {
        self.xs[range.clone()].iter().zip(&self.ys[range]).map(|(&x, &y)| Point::new(x, y))
    }
}

/// Reusable intermediate buffers for batched generation: raw uniforms in
/// stream order, then the deinterleaved angle and radius lanes.
///
/// Holding one `BatchScratch` per install path (device, fleet authority,
/// bench harness) keeps the whole pipeline allocation-free after warmup.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    uniforms: Vec<f64>,
    angles: Vec<f64>,
    radii: Vec<f64>,
}

impl BatchScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        BatchScratch::default()
    }
}

impl NFoldGaussian {
    /// Generates candidates for every location of `reals` into `lanes`
    /// (appending `n` points per real, input order), one **derived RNG
    /// stream per real**: `reals[i]` draws from
    /// `seeded(derive_seed(master, first_index + i))`.
    ///
    /// The per-index stream contract makes the output independent of how a
    /// caller shards the batch: element `i` sees the same stream whether
    /// the batch runs whole, split across threads, or one real at a time —
    /// and each set is bit-for-bit what the scalar
    /// [`NFoldGaussian::sample_one`] loop would draw from the same stream.
    pub fn obfuscate_many_into(
        &self,
        reals: &[Point],
        master: u64,
        first_index: u64,
        scratch: &mut BatchScratch,
        lanes: &mut CandidateLanes,
    ) {
        let per_real = self.params().n() * 2;
        scratch.uniforms.clear();
        scratch.uniforms.resize(reals.len() * per_real, 0.0);
        for (i, block) in scratch.uniforms.chunks_exact_mut(per_real).enumerate() {
            let mut rng = seeded(derive_seed(master, first_index + i as u64));
            fill_uniform(&mut rng, block);
        }
        self.transform_lanes(reals, scratch, lanes);
    }

    /// Generates candidates for every location of `reals` into `lanes`
    /// from **one shared caller stream**, consuming `rng` in exactly the
    /// order the scalar per-top loop would (`2·n` draws per real, reals in
    /// input order). Bit-for-bit identical to calling
    /// [`NFoldGaussian::sample_one`] `n` times per real on the same `rng`.
    pub fn obfuscate_shared_stream_into<R: Rng + ?Sized>(
        &self,
        reals: &[Point],
        rng: &mut R,
        scratch: &mut BatchScratch,
        lanes: &mut CandidateLanes,
    ) {
        let per_real = self.params().n() * 2;
        scratch.uniforms.clear();
        scratch.uniforms.resize(reals.len() * per_real, 0.0);
        fill_uniform(rng, &mut scratch.uniforms);
        self.transform_lanes(reals, scratch, lanes);
    }

    /// The shared transform: `scratch.uniforms` holds `2·n` stream-order
    /// variates per real (`θ-uniform, s-uniform` interleaved); deinterleave
    /// into angle/radius lanes, then offset from each real's center.
    ///
    /// Each loop body is the *exact* expression of the scalar path
    /// (`uniform_angle`, `radial_quantile` with the range assert hoisted —
    /// `fill_uniform` only produces `[0, 1)` — and `Point::offset_polar`),
    /// so the batched values match the scalar ones bit for bit.
    fn transform_lanes(
        &self,
        reals: &[Point],
        scratch: &mut BatchScratch,
        lanes: &mut CandidateLanes,
    ) {
        let n = self.params().n();
        let sigma = self.sigma();
        let total = reals.len() * n;
        debug_assert_eq!(scratch.uniforms.len(), total * 2);

        scratch.angles.clear();
        scratch.angles.resize(total, 0.0);
        scratch.radii.clear();
        scratch.radii.resize(total, 0.0);
        for (angle, pair) in scratch.angles.iter_mut().zip(scratch.uniforms.chunks_exact(2)) {
            *angle = pair[0] * 2.0 * PI;
        }
        for (radius, pair) in scratch.radii.iter_mut().zip(scratch.uniforms.chunks_exact(2)) {
            *radius = sigma * (-2.0 * (1.0 - pair[1]).ln()).sqrt();
        }

        lanes.xs.reserve(total);
        lanes.ys.reserve(total);
        for (i, real) in reals.iter().enumerate() {
            let (cx, cy) = (real.x, real.y);
            let angles = &scratch.angles[i * n..(i + 1) * n];
            let radii = &scratch.radii[i * n..(i + 1) * n];
            for (angle, radius) in angles.iter().zip(radii) {
                lanes.xs.push(cx + radius * angle.cos());
                lanes.ys.push(cy + radius * angle.sin());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeoIndParams, Lppm};

    fn mech(n: usize) -> NFoldGaussian {
        NFoldGaussian::new(GeoIndParams::new(500.0, 1.0, 0.01, n).unwrap())
    }

    #[test]
    fn lanes_round_trip_points() {
        let m = mech(5);
        let mut scratch = BatchScratch::new();
        let mut lanes = CandidateLanes::new();
        let real = Point::new(10.0, -20.0);
        let mut rng = seeded(3);
        m.obfuscate_shared_stream_into(&[real], &mut rng, &mut scratch, &mut lanes);
        assert_eq!(lanes.len(), 5);
        assert!(!lanes.is_empty());
        assert_eq!(lanes.xs().len(), 5);
        assert_eq!(lanes.ys().len(), 5);
        let collected: Vec<Point> = lanes.iter().collect();
        for (i, &p) in collected.iter().enumerate() {
            assert_eq!(lanes.point(i), p);
        }
        assert!(lanes.points(1..4).eq(collected[1..4].iter().copied()));
    }

    #[test]
    fn stream_variant_matches_scalar_sample_loop() {
        let m = mech(9);
        let real = Point::new(-7.5, 2.25);
        let mut scratch = BatchScratch::new();
        let mut lanes = CandidateLanes::new();
        let mut rng = seeded(19);
        m.obfuscate_shared_stream_into(&[real], &mut rng, &mut scratch, &mut lanes);
        let mut scalar_rng = seeded(19);
        let scalar = m.obfuscate(real, &mut scalar_rng);
        assert_eq!(lanes.iter().collect::<Vec<_>>(), scalar);
    }

    #[test]
    fn lanes_append_across_calls_and_clear_resets() {
        let m = mech(3);
        let mut scratch = BatchScratch::new();
        let mut lanes = CandidateLanes::new();
        let mut rng = seeded(5);
        m.obfuscate_shared_stream_into(&[Point::ORIGIN], &mut rng, &mut scratch, &mut lanes);
        m.obfuscate_shared_stream_into(&[Point::new(1.0, 1.0)], &mut rng, &mut scratch, &mut lanes);
        assert_eq!(lanes.len(), 6);
        lanes.clear();
        assert!(lanes.is_empty());
    }

    #[test]
    fn many_into_uses_one_derived_stream_per_real() {
        let m = mech(4);
        let reals = [Point::new(0.0, 0.0), Point::new(100.0, 50.0)];
        let mut scratch = BatchScratch::new();
        let mut lanes = CandidateLanes::new();
        m.obfuscate_many_into(&reals, 77, 5, &mut scratch, &mut lanes);
        for (i, &real) in reals.iter().enumerate() {
            let mut rng = seeded(derive_seed(77, 5 + i as u64));
            let expected = m.obfuscate(real, &mut rng);
            let got: Vec<Point> = (i * 4..(i + 1) * 4).map(|k| lanes.point(k)).collect();
            assert_eq!(got, expected, "real {i}");
        }
    }
}
