//! Percentiles, the printed report, and the result line.

use crate::fleet::PhaseRun;
use crate::oracle::Check;
use crate::workload::{Spec, CLIENTS, SHARDS};

/// The nearest-rank `q`-quantile of ascending `sorted` (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples (or events) it is computed from.
    pub samples: usize,
    /// For a ratio or share: what it is taken over.
    pub base: Option<String>,
    /// Whether the metric goes into the result line.
    pub gated: bool,
}

impl Metric {
    /// A printed metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
            base: None,
            gated: false,
        }
    }

    /// The metric, also in the result line.
    pub fn gated(self) -> Metric {
        Metric {
            gated: true,
            ..self
        }
    }

    /// The metric with what its ratio is taken over.
    pub fn with_base(self, base: String) -> Metric {
        Metric {
            base: Some(base),
            ..self
        }
    }
}

/// Prints the run header.
pub fn header(spec: &Spec, args_line: &str, ops: usize) {
    println!("fleetbench {args_line}");
    println!(
        "  fleet: {} users on {SHARDS} shards, {CLIENTS} closed-loop clients, {ops} timed operations",
        spec.users
    );
}

/// Prints the run-quality diagnostics: a run disturbed by host steal or
/// short of CPU shows here, not only in a shifted median.
pub fn run_quality(phase: &PhaseRun, setup_times: &[f64], settle_times: &[f64]) {
    let list = |times: &[f64]| {
        times
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "  run quality: host steal share {:.3}, run cpu {:.2} s over {:.2} s wall ({:.2} cores busy)",
        phase.steal_share,
        phase.cpu_s,
        phase.wall_s,
        phase.cpu_s / phase.wall_s.max(1e-9),
    );
    println!(
        "  set-ups [{}] s, settles [{}] s",
        list(setup_times),
        list(settle_times)
    );
    for error in &phase.errors {
        println!("  failure: {error}");
    }
}

/// Prints a metric table.
pub fn metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    println!(
        "  {:<34} {:>16} {:<8} {:>9}  base",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        println!(
            "  {:<34} {:>16.4} {:<8} {:>9}  {}",
            m.name,
            m.value,
            m.unit,
            m.samples,
            m.base.as_deref().unwrap_or("")
        );
    }
}

/// Prints the oracle's checks.
pub fn checks(checks: &[Check]) {
    println!("correctness oracle (after the timed phase):");
    for c in checks {
        println!(
            "  {}  {:<40} {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
}

/// Prints the result line: the last line of stdout, one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
