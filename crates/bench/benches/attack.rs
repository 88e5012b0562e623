//! Microbenchmarks of the longitudinal attack pipeline: profiling
//! (connectivity clustering) and Algorithm 1's top-n inference at
//! realistic per-user check-in volumes.

use privlocad_attack::{
    connectivity_clusters_with, ClusterScratch, DeobfuscationAttack, LocationProfile,
};
use privlocad_bench::microbench::Runner;
use privlocad_geo::{rng::seeded, Point};
use privlocad_mechanisms::{Lppm, PlanarLaplace, PlanarLaplaceParams};

/// A two-top-location user's obfuscated observation stream.
fn workload(checkins: usize) -> Vec<Point> {
    let mech = PlanarLaplace::new(PlanarLaplaceParams::from_level(4f64.ln(), 200.0).unwrap());
    let mut rng = seeded(42);
    let home = Point::new(0.0, 0.0);
    let office = Point::new(9_000.0, 4_000.0);
    let mut pts = Vec::with_capacity(checkins);
    for i in 0..checkins {
        let place = if i % 3 == 0 { office } else { home };
        pts.extend(mech.obfuscate(place, &mut rng));
    }
    pts
}

fn bench_profiling(runner: &mut Runner) {
    for m in [500usize, 2_000] {
        let pts = workload(m);
        runner.bench(&format!("profiling/from_checkins/{m}"), || {
            LocationProfile::from_checkins(std::hint::black_box(&pts), 50.0)
        });
    }
}

fn bench_clustering(runner: &mut Runner) {
    // The clustering core with its scratch buffers (sorted cell entries and
    // run bounds) reused across calls — the shape the attack pipeline runs
    // it in.
    let mut scratch = ClusterScratch::default();
    for m in [500usize, 2_000] {
        let pts = workload(m);
        runner.bench(&format!("clustering/connectivity_clusters_with/{m}"), || {
            connectivity_clusters_with(std::hint::black_box(&pts), 50.0, &mut scratch)
        });
    }
}

fn bench_deobfuscation(runner: &mut Runner) {
    let mech = PlanarLaplace::new(PlanarLaplaceParams::from_level(4f64.ln(), 200.0).unwrap());
    let attack = DeobfuscationAttack::for_planar_laplace(&mech, 0.05).unwrap();
    for m in [500usize, 2_000] {
        let pts = workload(m);
        runner.bench(&format!("deobfuscation/top2/{m}"), || {
            attack.infer_top_locations(std::hint::black_box(&pts), 2)
        });
    }
}

fn main() {
    let mut runner = Runner::new();
    bench_profiling(&mut runner);
    bench_clustering(&mut runner);
    bench_deobfuscation(&mut runner);
    runner.finish();
}
