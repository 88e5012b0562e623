use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use rand::RngCore;

/// A location privacy-preserving mechanism releasing a set of obfuscated
/// locations for one real location.
///
/// All mechanisms in this crate — the n-fold Gaussian and both baselines —
/// implement this trait so that the evaluation harness and the
/// Edge-PrivLocAd obfuscation module can swap mechanisms freely.
///
/// The trait is object-safe: the Edge-PrivLocAd obfuscation module stores a
/// `Box<dyn Lppm>` chosen at configuration time.
///
/// # Examples
///
/// ```
/// use privlocad_geo::{rng::seeded, Point};
/// use privlocad_mechanisms::{GeoIndParams, Lppm, NFoldGaussian, PlainComposition};
///
/// let params = GeoIndParams::new(500.0, 1.0, 0.01, 4)?;
/// let mechanisms: Vec<Box<dyn Lppm>> = vec![
///     Box::new(NFoldGaussian::new(params)),
///     Box::new(PlainComposition::new(params)),
/// ];
/// let mut rng = seeded(1);
/// for m in &mechanisms {
///     assert_eq!(m.obfuscate(Point::ORIGIN, &mut rng).len(), 4);
/// }
/// # Ok::<(), privlocad_mechanisms::MechanismError>(())
/// ```
pub trait Lppm: Send + Sync {
    /// Releases the obfuscated location set for `real`, **appending**
    /// exactly [`Lppm::output_count`] points to `out`.
    ///
    /// This is the allocation-free hot path: Monte-Carlo loops call it with
    /// a reused buffer (clearing between trials), so a million trials cost
    /// zero per-trial allocations instead of one `Vec` each.
    fn obfuscate_into(&self, real: Point, rng: &mut dyn RngCore, out: &mut Vec<Point>);

    /// Releases the obfuscated location set for `real`.
    ///
    /// The returned vector has exactly [`Lppm::output_count`] elements.
    /// Convenience wrapper over [`Lppm::obfuscate_into`]; prefer the latter
    /// in loops.
    fn obfuscate(&self, real: Point, rng: &mut dyn RngCore) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.output_count());
        self.obfuscate_into(real, rng, &mut out);
        out
    }

    /// Obfuscates every location of `reals`, appending
    /// [`Lppm::output_count`] points per real location to `out` in input
    /// order (a flat `reals.len() × output_count()` layout).
    fn obfuscate_batch(&self, reals: &[Point], rng: &mut dyn RngCore, out: &mut Vec<Point>) {
        out.reserve(reals.len() * self.output_count());
        for &real in reals {
            self.obfuscate_into(real, rng, out);
        }
    }

    /// Obfuscates every location of `reals` with **one derived RNG stream
    /// per location**, appending [`Lppm::output_count`] points per real to
    /// `out` in input order: `reals[i]` draws from
    /// `seeded(derive_seed(master, first_index + i))`.
    ///
    /// Unlike [`Lppm::obfuscate_batch`] (which threads one caller stream
    /// through the whole batch), the per-index contract makes element `i`'s
    /// output independent of batch boundaries and thread sharding — the
    /// same invariance the parallel execution layer relies on.
    fn obfuscate_many(&self, reals: &[Point], master: u64, first_index: u64, out: &mut Vec<Point>) {
        out.reserve(reals.len() * self.output_count());
        for (i, &real) in reals.iter().enumerate() {
            let mut rng = seeded(derive_seed(master, first_index + i as u64));
            self.obfuscate_into(real, &mut rng, out);
        }
    }

    /// The number of obfuscated locations released per call (`n`).
    fn output_count(&self) -> usize;

    /// A short human-readable mechanism name for reports and logs.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Identity;

    impl Lppm for Identity {
        fn obfuscate_into(&self, real: Point, _rng: &mut dyn RngCore, out: &mut Vec<Point>) {
            out.push(real);
        }
        fn output_count(&self) -> usize {
            1
        }
        fn name(&self) -> &str {
            "identity"
        }
    }

    #[test]
    fn trait_is_object_safe_and_usable() {
        let m: Box<dyn Lppm> = Box::new(Identity);
        let mut rng = privlocad_geo::rng::seeded(0);
        let out = m.obfuscate(Point::new(1.0, 2.0), &mut rng);
        assert_eq!(out, vec![Point::new(1.0, 2.0)]);
        assert_eq!(m.output_count(), 1);
        assert_eq!(m.name(), "identity");
    }

    #[test]
    fn obfuscate_into_appends_without_clearing() {
        let m = Identity;
        let mut rng = privlocad_geo::rng::seeded(0);
        let mut out = vec![Point::ORIGIN];
        m.obfuscate_into(Point::new(3.0, 4.0), &mut rng, &mut out);
        assert_eq!(out, vec![Point::ORIGIN, Point::new(3.0, 4.0)]);
    }

    #[test]
    fn obfuscate_many_derives_one_stream_per_real() {
        // Identity ignores the RNG, so this pins layout: flat, input order,
        // output_count() points per real.
        let m = Identity;
        let reals = [Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let mut out = Vec::new();
        m.obfuscate_many(&reals, 42, 7, &mut out);
        assert_eq!(out, reals);
        // And the stream contract: a mechanism that *does* draw sees
        // seeded(derive_seed(master, first_index + i)) for element i.
        struct FirstDraw;
        impl Lppm for FirstDraw {
            fn obfuscate_into(&self, _real: Point, rng: &mut dyn RngCore, out: &mut Vec<Point>) {
                out.push(Point::new(rng.next_u32() as f64, 0.0));
            }
            fn output_count(&self) -> usize {
                1
            }
            fn name(&self) -> &str {
                "first-draw"
            }
        }
        let mut out = Vec::new();
        FirstDraw.obfuscate_many(&reals, 42, 7, &mut out);
        for (i, p) in out.iter().enumerate() {
            let mut rng = seeded(derive_seed(42, 7 + i as u64));
            assert_eq!(p.x, rng.next_u32() as f64, "element {i}");
        }
    }

    #[test]
    fn obfuscate_batch_flattens_in_input_order() {
        let m = Identity;
        let mut rng = privlocad_geo::rng::seeded(0);
        let reals = [Point::new(1.0, 0.0), Point::new(2.0, 0.0), Point::new(3.0, 0.0)];
        let mut out = Vec::new();
        m.obfuscate_batch(&reals, &mut rng, &mut out);
        assert_eq!(out, reals);
    }
}
