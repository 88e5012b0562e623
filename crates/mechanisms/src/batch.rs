//! The n-fold batch entry `fleetbench` times: [`Lppm::obfuscate_many`]
//! under the names the benchmark calls, kept until it calls the trait
//! itself. Algorithm 3 has one draw path, [`NFoldGaussian::sample_one`].

use privlocad_geo::Point;

use crate::{Lppm, NFoldGaussian};

/// The points [`NFoldGaussian::obfuscate_many_into`] appends, flat in
/// input order. Kept only because `fleetbench` names it.
#[derive(Debug, Clone, Default)]
pub struct CandidateLanes {
    points: Vec<Point>,
}

impl CandidateLanes {
    /// Creates empty lanes.
    pub fn new() -> Self {
        CandidateLanes::default()
    }

    /// Discards the generated points, keeping the allocation.
    pub fn clear(&mut self) {
        self.points.clear();
    }
}

/// An empty argument of [`NFoldGaussian::obfuscate_many_into`]. Kept only
/// because `fleetbench` names it.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch;

impl BatchScratch {
    /// Creates the (empty) scratch.
    pub fn new() -> Self {
        BatchScratch
    }
}

impl NFoldGaussian {
    /// [`Lppm::obfuscate_many`] appending into `lanes`: `reals[i]` draws
    /// its `n` candidates from `seeded(derive_seed(master, first_index +
    /// i))`. Kept only because `fleetbench` times it.
    pub fn obfuscate_many_into(
        &self,
        reals: &[Point],
        master: u64,
        first_index: u64,
        _scratch: &mut BatchScratch,
        lanes: &mut CandidateLanes,
    ) {
        self.obfuscate_many(reals, master, first_index, &mut lanes.points);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeoIndParams;
    use privlocad_geo::rng::{derive_seed, seeded};

    fn mech(n: usize) -> NFoldGaussian {
        NFoldGaussian::new(GeoIndParams::new(500.0, 1.0, 0.01, n).unwrap())
    }

    #[test]
    fn many_into_uses_one_derived_stream_per_real() {
        // The entry fleetbench times is `Lppm::obfuscate_many`, for every
        // batch size: `reals[i]` draws from `derive_seed(77, 5 + i)`.
        let m = mech(10);
        let mut lanes = CandidateLanes::new();
        for &batch in &[1usize, 7, 64] {
            let reals: Vec<Point> =
                (0..batch).map(|i| Point::new(1_000.0 * i as f64, -250.0 * i as f64)).collect();
            lanes.clear();
            m.obfuscate_many_into(&reals, 77, 5, &mut BatchScratch::new(), &mut lanes);
            let mut via_trait = Vec::new();
            m.obfuscate_many(&reals, 77, 5, &mut via_trait);
            assert_eq!(lanes.points, via_trait, "batch size {batch}");
            for (i, &real) in reals.iter().enumerate() {
                let mut rng = seeded(derive_seed(77, 5 + i as u64));
                let got = &lanes.points[i * 10..(i + 1) * 10];
                assert_eq!(got, m.obfuscate(real, &mut rng), "batch {batch} real {i}");
            }
        }
    }

    #[test]
    fn lanes_append_across_calls_and_clear_resets() {
        let m = mech(3);
        let mut lanes = CandidateLanes::new();
        m.obfuscate_many_into(&[Point::ORIGIN], 5, 0, &mut BatchScratch::new(), &mut lanes);
        m.obfuscate_many_into(&[Point::new(1.0, 1.0)], 5, 1, &mut BatchScratch::new(), &mut lanes);
        assert_eq!(lanes.points.len(), 6);
        lanes.clear();
        assert!(lanes.points.is_empty());
    }
}
