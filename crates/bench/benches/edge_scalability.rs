//! Microbenchmark version of Tables II and III: edge-device batch profile
//! building and per-request output selection as the user count grows.
//! The assertion target is the ~linear scaling the paper reports for its
//! Raspberry Pi 3 deployment.

use privlocad::{EdgeDevice, SystemConfig};
use privlocad_bench::microbench::Runner;
use privlocad_geo::rng::{gaussian_2d, seeded};
use privlocad_geo::Point;
use privlocad_mobility::UserId;

/// Synthetic per-user windows: 60 home + 25 office check-ins with jitter.
fn windows(users: usize) -> Vec<Vec<Point>> {
    let mut rng = seeded(7);
    (0..users)
        .map(|i| {
            let home = Point::new((i % 100) as f64 * 2_000.0, (i / 100) as f64 * 2_000.0);
            let office = home + Point::new(8_000.0, 0.0);
            let mut w = Vec::with_capacity(85);
            for _ in 0..60 {
                w.push(home + gaussian_2d(&mut rng, 15.0));
            }
            for _ in 0..25 {
                w.push(office + gaussian_2d(&mut rng, 15.0));
            }
            w
        })
        .collect()
}

fn bench_table2_profile_build(runner: &mut Runner) {
    let sys = SystemConfig::builder().build().unwrap();
    for users in [200usize, 400, 800] {
        let data = windows(users);
        runner.bench_throughput(
            &format!("table2_obfuscation_processing/{users}"),
            users as u64,
            || {
                let mut edge = EdgeDevice::new(sys, 1);
                for (i, window) in data.iter().enumerate() {
                    let user = UserId::new(i as u32);
                    for &loc in window {
                        edge.report_checkin(user, loc);
                    }
                    edge.finalize_window(user);
                }
                edge.user_count()
            },
        );
    }
}

fn bench_table3_output_selection(runner: &mut Runner) {
    let sys = SystemConfig::builder().build().unwrap();
    for users in [200usize, 400, 800] {
        let data = windows(users);
        let mut edge = EdgeDevice::new(sys, 2);
        let homes: Vec<Point> = data.iter().map(|w| w[0]).collect();
        for (i, window) in data.iter().enumerate() {
            let user = UserId::new(i as u32);
            for &loc in window {
                edge.report_checkin(user, loc);
            }
            edge.finalize_window(user);
        }
        runner.bench_throughput(&format!("table3_output_selection/{users}"), users as u64, || {
            for (i, &home) in homes.iter().enumerate() {
                std::hint::black_box(edge.reported_location(UserId::new(i as u32), home));
            }
        });
    }
}

fn main() {
    let mut runner = Runner::new();
    bench_table2_profile_build(&mut runner);
    bench_table3_output_selection(&mut runner);
    runner.finish();
}
