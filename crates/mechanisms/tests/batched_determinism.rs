//! The batch determinism contract of the n-fold Gaussian mechanism:
//! `Lppm::obfuscate_many` is bit-for-bit the scalar `sample_one` loop
//! under the `derive_seed(master, first_index + i)` per-index stream
//! contract, for every batch size and thread sharding. This extends the
//! `parallel_determinism` coverage to candidate generation.

use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use privlocad_mechanisms::{GeoIndParams, Lppm, NFoldGaussian};

const MASTER: u64 = 0xC0FF_EE00;
const FIRST_INDEX: u64 = 13;

fn mech(n: usize) -> NFoldGaussian {
    NFoldGaussian::new(GeoIndParams::new(500.0, 1.0, 0.01, n).unwrap())
}

fn reals(count: usize) -> Vec<Point> {
    (0..count).map(|i| Point::new(1_000.0 * i as f64, -250.0 * (i % 7) as f64)).collect()
}

/// The reference: the scalar `sample_one` loop, one derived stream per real.
fn scalar_reference(m: &NFoldGaussian, reals: &[Point], first_index: u64) -> Vec<Point> {
    let mut out = Vec::new();
    for (i, &real) in reals.iter().enumerate() {
        let mut rng = seeded(derive_seed(MASTER, first_index + i as u64));
        for _ in 0..m.params().n() {
            out.push(m.sample_one(real, &mut rng));
        }
    }
    out
}

/// The batch through a `dyn` handle, as the serving stack holds a mechanism.
fn batched(m: &dyn Lppm, reals: &[Point], first_index: u64) -> Vec<Point> {
    let mut out = Vec::new();
    m.obfuscate_many(reals, MASTER, first_index, &mut out);
    out
}

#[test]
fn batched_matches_scalar_loop_for_every_batch_size() {
    let m = mech(10);
    for &batch in &[1usize, 7, 64] {
        let points = reals(batch);
        assert_eq!(
            batched(&m, &points, FIRST_INDEX),
            scalar_reference(&m, &points, FIRST_INDEX),
            "batch size {batch} diverged from the scalar stream"
        );
    }
}

#[test]
fn thread_sharding_cannot_change_the_output() {
    // Shard the batch across worker threads, each generating its chunk with
    // the chunk's first_index offset; the concatenation must equal the
    // single-threaded whole-batch run bit for bit.
    let m = mech(6);
    for &batch in &[1usize, 7, 64] {
        let points = reals(batch);
        let whole = batched(&m, &points, FIRST_INDEX);
        for &threads in &[1usize, 2] {
            let chunk = batch.div_ceil(threads);
            let mut sharded: Vec<Point> = Vec::new();
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for (w, part) in points.chunks(chunk).enumerate() {
                    let m = &m;
                    handles.push(
                        scope.spawn(move || batched(m, part, FIRST_INDEX + (w * chunk) as u64)),
                    );
                }
                for handle in handles {
                    sharded.extend(handle.join().expect("worker panicked"));
                }
            });
            assert_eq!(sharded, whole, "batch {batch} across {threads} threads diverged");
        }
    }
}
