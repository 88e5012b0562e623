//! Microbenchmarks of the utility-metric evaluation pipeline: the cost of
//! one utilization-rate trial (exact lens vs sampled union) and the
//! parallel Monte-Carlo runner's throughput — what bounds how fast the
//! Fig. 7–9 sweeps run.

use privlocad_bench::microbench::Runner;
use privlocad_geo::{rng::seeded, Circle, Point};
use privlocad_mechanisms::{GeoIndParams, Lppm, NFoldGaussian};
use privlocad_metrics::utilization;

fn bench_lens_area(runner: &mut Runner) {
    let aoi = Circle::new(Point::ORIGIN, 5_000.0).unwrap();
    runner.bench("utilization/analytic_lens", || {
        utilization::analytic(&aoi, std::hint::black_box(Point::new(3_000.0, 1_000.0)))
    });
}

fn bench_union_coverage(runner: &mut Runner) {
    let aoi = Circle::new(Point::ORIGIN, 5_000.0).unwrap();
    let mech = NFoldGaussian::new(GeoIndParams::new(500.0, 1.0, 0.01, 10).unwrap());
    let mut rng = seeded(5);
    let centers = mech.obfuscate(Point::ORIGIN, &mut rng);
    for samples in [128usize, 512, 2_048] {
        let mut rng = seeded(9);
        runner.bench_throughput(
            &format!("utilization/coverage_sampled/{samples}"),
            samples as u64,
            || utilization::coverage_sampled(&aoi, &centers, samples, &mut rng),
        );
    }
}

fn bench_measure_pipeline(runner: &mut Runner) {
    let mech = NFoldGaussian::new(GeoIndParams::new(500.0, 1.0, 0.01, 10).unwrap());
    for trials in [500usize, 2_000] {
        runner.bench_throughput(&format!("utilization/measure/{trials}"), trials as u64, || {
            utilization::measure(&mech, 5_000.0, trials, 1)
        });
    }
}

fn main() {
    let mut runner = Runner::new();
    bench_lens_area(&mut runner);
    bench_union_coverage(&mut runner);
    bench_measure_pipeline(&mut runner);
    runner.finish();
}
