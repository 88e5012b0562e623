//! The batched-sampling determinism contract: `obfuscate_many_into` is
//! bit-for-bit identical to the scalar `sample_one` loop under the
//! `derive_seed(master, first_index + i)` per-index stream contract, for
//! every batch size and thread sharding. This extends the PR 1
//! `parallel_determinism` coverage to the vectorized candidate generator.

use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use privlocad_mechanisms::{BatchScratch, CandidateLanes, GeoIndParams, Lppm, NFoldGaussian};

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

fn batched(m: &NFoldGaussian, reals: &[Point], first_index: u64) -> Vec<Point> {
    let mut scratch = BatchScratch::new();
    let mut lanes = CandidateLanes::new();
    m.obfuscate_many_into(reals, MASTER, first_index, &mut scratch, &mut lanes);
    lanes.iter().collect()
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

#[test]
fn shared_stream_variant_matches_the_scalar_interleaved_loop() {
    // The install path's single-stream kernel: one caller RNG threaded
    // through the whole batch, exactly like the pre-batching per-top loop.
    let m = mech(8);
    let points = reals(7);
    let mut scratch = BatchScratch::new();
    let mut lanes = CandidateLanes::new();
    let mut rng = seeded(4242);
    m.obfuscate_shared_stream_into(&points, &mut rng, &mut scratch, &mut lanes);
    let mut scalar_rng = seeded(4242);
    let mut expected = Vec::new();
    for &real in &points {
        for _ in 0..m.params().n() {
            expected.push(m.sample_one(real, &mut scalar_rng));
        }
    }
    assert_eq!(lanes.iter().collect::<Vec<_>>(), expected);
    // And both ends of the stream line up: the next draw after the batch is
    // the same in both worlds.
    use rand::Rng;
    assert_eq!(rng.gen::<f64>(), scalar_rng.gen::<f64>());
}

#[test]
fn trait_entry_point_matches_the_lane_override() {
    // Lppm::obfuscate_many (the NFoldGaussian lane override) against the
    // trait's documented contract, via a dyn handle as the serving stack
    // would hold it.
    let m = mech(5);
    let points = reals(9);
    let handle: &dyn Lppm = &m;
    let mut via_trait = Vec::new();
    handle.obfuscate_many(&points, MASTER, FIRST_INDEX, &mut via_trait);
    assert_eq!(via_trait, scalar_reference(&m, &points, FIRST_INDEX));
}

#[test]
fn scratch_reuse_across_batches_is_stateless() {
    // The arena story: one scratch/lanes pair reused across many batches
    // must produce the same bytes as fresh buffers every time.
    let m = mech(4);
    let mut scratch = BatchScratch::new();
    let mut lanes = CandidateLanes::new();
    for round in 0..3u64 {
        lanes.clear();
        let points = reals(5 + round as usize);
        m.obfuscate_many_into(&points, MASTER, round * 100, &mut scratch, &mut lanes);
        let fresh = {
            let mut s = BatchScratch::new();
            let mut l = CandidateLanes::new();
            m.obfuscate_many_into(&points, MASTER, round * 100, &mut s, &mut l);
            l.iter().collect::<Vec<_>>()
        };
        assert_eq!(lanes.iter().collect::<Vec<_>>(), fresh, "round {round}");
    }
}
