//! A dependency-free timing harness for the `benches/` targets.
//!
//! The workspace builds offline, so the criterion dependency was replaced
//! with this minimal runner: per-label adaptive iteration counts, median of
//! a few samples, and an aligned ns/op (plus optional throughput) report.
//! It intentionally keeps criterion's "group/label" reporting shape so the
//! bench sources read the same.

use std::time::{Duration, Instant};

/// One measured benchmark row.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Group/label identifier, e.g. `obfuscate/n_fold_gaussian/10`.
    pub label: String,
    /// Median wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Fastest sample's nanoseconds per iteration. On a shared machine
    /// interference is strictly additive, so the minimum is the
    /// lowest-variance estimate of intrinsic cost — the statistic of
    /// choice when two rows are compared as a ratio.
    pub min_ns_per_iter: f64,
    /// Elements processed per iteration (for throughput rows).
    pub elements: Option<u64>,
}

/// A sequential benchmark runner that prints a report on [`Runner::finish`].
#[derive(Debug, Default)]
pub struct Runner {
    rows: Vec<Measurement>,
}

/// Target wall-clock time for one measurement sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(60);
/// Samples per benchmark; the median is reported (and the minimum kept).
/// Nine samples give the minimum a real chance of landing in a quiet
/// scheduling window on busy single-core CI machines.
const SAMPLES: usize = 9;

impl Runner {
    /// Creates an empty runner.
    pub fn new() -> Self {
        Runner::default()
    }

    /// Measures `f`, reporting it under `label`.
    pub fn bench<T>(&mut self, label: &str, mut f: impl FnMut() -> T) {
        self.push_row(label, None, &mut || {
            std::hint::black_box(f());
        });
    }

    /// Measures `f` which processes `elements` items per iteration; the
    /// report adds an elements/second column.
    pub fn bench_throughput<T>(&mut self, label: &str, elements: u64, mut f: impl FnMut() -> T) {
        self.push_row(label, Some(elements), &mut || {
            std::hint::black_box(f());
        });
    }

    /// Measures two throughput workloads with their samples interleaved:
    /// one sample of `a`, one of `b`, repeated. Use this when the two rows
    /// will be compared as a ratio — on a busy (single-core CI) machine an
    /// interference burst then hits both workloads symmetrically instead
    /// of polluting one side of the comparison.
    pub fn bench_throughput_paired<T, U>(
        &mut self,
        a: (&str, u64, &mut impl FnMut() -> T),
        b: (&str, u64, &mut impl FnMut() -> U),
    ) {
        let (label_a, elements_a, f_a) = a;
        let (label_b, elements_b, f_b) = b;
        let mut run_a = || {
            std::hint::black_box(f_a());
        };
        let mut run_b = || {
            std::hint::black_box(f_b());
        };
        let iters_a = calibrate(&mut run_a);
        let iters_b = calibrate(&mut run_b);
        let mut samples_a = Vec::with_capacity(SAMPLES);
        let mut samples_b = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            samples_a.push(sample(&mut run_a, iters_a));
            samples_b.push(sample(&mut run_b, iters_b));
        }
        for (label, elements, samples) in
            [(label_a, elements_a, samples_a), (label_b, elements_b, samples_b)]
        {
            let row = summarize(label, Some(elements), samples);
            println!("{}", render(&row));
            self.rows.push(row);
        }
    }

    fn push_row(&mut self, label: &str, elements: Option<u64>, f: &mut dyn FnMut()) {
        let sample_iters = calibrate(f);
        let samples: Vec<f64> = (0..SAMPLES).map(|_| sample(f, sample_iters)).collect();
        let row = summarize(label, elements, samples);
        println!("{}", render(&row));
        self.rows.push(row);
    }

    /// Prints the summary table and returns the measurements.
    pub fn finish(self) -> Vec<Measurement> {
        println!("\n== microbench summary ==");
        for row in &self.rows {
            println!("{}", render(row));
        }
        self.rows
    }
}

/// Warms `f` up and picks an iteration count filling [`SAMPLE_TARGET`].
fn calibrate<F: FnMut() + ?Sized>(f: &mut F) -> u64 {
    let mut iters: u64 = 1;
    let per_iter = loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(10) {
            break elapsed.as_secs_f64() / iters as f64;
        }
        iters = iters.saturating_mul(8);
    };
    ((SAMPLE_TARGET.as_secs_f64() / per_iter).ceil() as u64).max(1)
}

/// One timed sample: seconds per iteration over `iters` runs of `f`.
fn sample<F: FnMut() + ?Sized>(f: &mut F, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Collapses raw samples into a [`Measurement`] (median + minimum).
fn summarize(label: &str, elements: Option<u64>, mut samples: Vec<f64>) -> Measurement {
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];
    Measurement {
        label: label.to_string(),
        ns_per_iter: median * 1e9,
        min_ns_per_iter: samples[0] * 1e9,
        elements,
    }
}

fn render(row: &Measurement) -> String {
    let mut line = format!("{:<44} {:>14}/iter", row.label, format_ns(row.ns_per_iter));
    if let Some(elements) = row.elements {
        let per_sec = elements as f64 / (row.ns_per_iter * 1e-9);
        line.push_str(&format!("  {:>14} elem/s", format_count(per_sec)));
    }
    line
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn format_count(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.2}k", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut runner = Runner::new();
        let mut acc = 0u64;
        runner.bench("noop-ish", || {
            acc = acc.wrapping_add(1);
            acc
        });
        let rows = runner.finish();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].ns_per_iter > 0.0);
        assert!(rows[0].min_ns_per_iter > 0.0);
        assert!(rows[0].min_ns_per_iter <= rows[0].ns_per_iter);
    }

    #[test]
    fn formats_scale_units() {
        assert!(format_ns(12.0).ends_with("ns"));
        assert!(format_ns(12_000.0).ends_with("µs"));
        assert!(format_ns(12_000_000.0).ends_with("ms"));
        assert!(format_ns(2e9).ends_with('s'));
        assert_eq!(format_count(500.0), "500");
        assert!(format_count(5e3).ends_with('k'));
        assert!(format_count(5e6).ends_with('M'));
        assert!(format_count(5e9).ends_with('G'));
    }
}
